// Command mmnode runs one live scalamedia node over UDP: it joins (or
// bootstraps) a session group, prints every session event, and multicasts
// each line read from standard input to the group.
//
// Bootstrap the first node, then join others through it:
//
//	mmnode -id 1 -listen 127.0.0.1:7001
//	mmnode -id 2 -listen 127.0.0.1:7002 -contact 1 -peer 1=127.0.0.1:7001
//	mmnode -id 3 -listen 127.0.0.1:7003 -contact 1 -peer 1=127.0.0.1:7001
//
// Only the contact's address needs configuring: the transport learns
// return addresses from inbound datagrams, and view changes redistribute
// every member's advertised address, so joiners discover each other
// automatically. A node behind NAT or listening on a wildcard address
// should set -advertise to the address peers can actually reach.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"scalamedia"
)

// peerFlags collects repeated -peer id=addr mappings.
type peerFlags map[scalamedia.NodeID]string

func (p peerFlags) String() string { return fmt.Sprintf("%v", map[scalamedia.NodeID]string(p)) }

func (p peerFlags) Set(v string) error {
	idStr, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want id=addr, got %q", v)
	}
	idNum, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad node id %q: %w", idStr, err)
	}
	p[scalamedia.NodeID(idNum)] = addr
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	idFlag := flag.Uint64("id", 0, "node ID (required, nonzero)")
	listen := flag.String("listen", "127.0.0.1:0", "UDP listen address")
	group := flag.Uint("group", 1, "session group ID")
	contact := flag.Uint64("contact", 0, "node ID to join through (0 bootstraps)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /timeline, /debug/vars and /debug/pprof on this address (empty disables)")
	udpBatch := flag.Int("udp-batch", 0,
		"max datagrams per recvmmsg/sendmmsg syscall (0 = transport default, 1 = portable single-datagram path)")
	advertise := flag.String("advertise", "",
		"address peers should reach this node at (empty auto-derives from the bound socket)")
	joinAttempts := flag.Int("join-attempts", 0,
		"give up joining after this many attempts (0 retries forever)")
	joinBackoff := flag.Duration("join-backoff-max", 0,
		"cap on the jittered exponential join retry backoff (0 = default)")
	flowWindow := flag.Int("flow-window", 0,
		"bound the unstable multicast history to this many messages; sends block when full (0 = unbounded)")
	slowGrace := flag.Duration("slow-grace", 0,
		"catch-up budget before a slow member is evicted under -slow-policy=evict (0 = default 2s)")
	slowPolicy := flag.String("slow-policy", "throttle",
		"slow-receiver policy: throttle (pace senders to the laggard) or evict (remove it after -slow-grace)")
	peers := peerFlags{}
	flag.Var(peers, "peer", "peer address mapping id=addr (repeatable)")
	flag.Parse()

	if *idFlag == 0 {
		fmt.Fprintln(os.Stderr, "mmnode: -id is required and must be nonzero")
		return 2
	}
	var policy scalamedia.SlowPolicy
	switch *slowPolicy {
	case "throttle":
		policy = scalamedia.ThrottleToSlowest
	case "evict":
		policy = scalamedia.EvictSlow
	default:
		fmt.Fprintf(os.Stderr, "mmnode: -slow-policy must be throttle or evict, got %q\n", *slowPolicy)
		return 2
	}

	node, err := scalamedia.Start(scalamedia.Config{
		Self:        scalamedia.NodeID(*idFlag),
		ListenAddr:  *listen,
		Group:       scalamedia.GroupID(*group),
		Contact:     scalamedia.NodeID(*contact),
		Peers:       peers,
		MetricsAddr: *metricsAddr,

		AdvertiseAddr:  *advertise,
		JoinAttempts:   *joinAttempts,
		JoinBackoffMax: *joinBackoff,

		FlowWindow: *flowWindow,
		SlowGrace:  *slowGrace,
		SlowPolicy: policy,

		UDPBatch: *udpBatch,
		OnEvent: func(ev scalamedia.Event) {
			switch ev.Kind {
			case scalamedia.MessageReceived:
				fmt.Printf("<%s> %s\n", ev.Node, ev.Payload)
			case scalamedia.ParticipantJoined, scalamedia.ParticipantLeft:
				fmt.Printf("[%s: %s; view %s has %d members]\n",
					ev.Kind, ev.Node, ev.View.ID, ev.View.Size())
			case scalamedia.StreamAnnounced, scalamedia.StreamWithdrawn:
				fmt.Printf("[%s: %s %q by %s]\n",
					ev.Kind, ev.Stream.Spec.ID, ev.Stream.Spec.Name, ev.Node)
			case scalamedia.MemberSlow:
				state := "slow"
				if !ev.Slow {
					state = "caught up"
				}
				fmt.Printf("[member-slow: %s %s, lag %d]\n", ev.Node, state, ev.Lag)
			case scalamedia.JoinFailed:
				fmt.Fprintf(os.Stderr, "mmnode: join failed: %v\n", ev.Err)
			}
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmnode: %v\n", err)
		return 1
	}
	defer node.Close()
	fmt.Printf("mmnode %s listening on %s (group %d)\n", node.ID(), node.Addr(), *group)
	if ma := node.MetricsAddr(); ma != "" {
		fmt.Printf("mmnode %s metrics on http://%s/metrics\n", node.ID(), ma)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	lines := make(chan string)
	go func() {
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()

	for {
		select {
		case <-sigs:
			fmt.Println("mmnode: leaving session")
			node.Leave()
			return 0
		case line, ok := <-lines:
			if !ok {
				node.Leave()
				return 0
			}
			if strings.TrimSpace(line) == "" {
				continue
			}
			if err := node.Send([]byte(line)); err != nil {
				fmt.Fprintf(os.Stderr, "mmnode: send: %v\n", err)
			}
		}
	}
}
