// Widearea: the paper's scalability argument as a runnable demo. The same
// 24-node group is driven twice over an in-process network — once as a
// single flat reliable-multicast group, once organized as the
// hierarchical architecture (clusters of 6 with relays) — and the demo
// prints the datagram counts side by side, showing the hierarchy's
// near-constant control overhead against the flat group's quadratic
// gossip.
//
// This example uses the internal engines directly (rather than the
// public Node API) because it instruments the transport layer; it is the
// programmatic twin of experiment T3 / figure F5.
package main

import (
	"fmt"
	"log"
	"time"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

const (
	groupSize   = 24
	clusterSize = 6
	messages    = 40
)

func main() {
	flatStats, flatDelivered, flatRequests := runFlat()
	hierStats, hierDelivered, hierRequests := runHier()

	fmt.Printf("scalability demo: %d nodes, %d multicasts, 1%% loss\n\n", groupSize, messages)
	fmt.Printf("%-28s %12s %12s\n", "", "flat", "hierarchical")
	fmt.Printf("%-28s %12d %12d\n", "application deliveries",
		flatDelivered, hierDelivered)
	row := func(name string, k wire.Kind) {
		fmt.Printf("%-28s %12d %12d\n",
			name, flatStats.SentByKind[k], hierStats.SentByKind[k])
	}
	row("data datagrams", wire.KindData)
	row("retransmissions", wire.KindRetrans)
	// Request events, one per multicast KindRepairReq, as the engines
	// count them (rmcast.Counters.NacksSent).
	fmt.Printf("%-28s %12d %12d\n", "repair requests", flatRequests, hierRequests)
	row("stability gossip", wire.KindStable)
	fmt.Printf("%-28s %12d %12d\n", "total datagrams",
		flatStats.TotalSent(), hierStats.TotalSent())
	fmt.Printf("%-28s %12.2f %12.2f\n", "datagrams per delivery",
		float64(flatStats.TotalSent())/float64(flatDelivered),
		float64(hierStats.TotalSent())/float64(hierDelivered))
	fmt.Println("\nthe hierarchy keeps gossip inside 6-node clusters and the")
	fmt.Println("4-relay group; the flat group gossips across all 24 nodes.")
}

func nodeRange(n int) []id.Node {
	out := make([]id.Node, n)
	for i := range out {
		out[i] = id.Node(i + 1)
	}
	return out
}

func runFlat() (netsim.Stats, int, uint64) {
	s := netsim.New(netsim.Config{
		Seed:    42,
		Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, 0.01),
	})
	view := member.NewView(1, nodeRange(groupSize))
	delivered := 0
	engines := map[id.Node]*rmcast.Engine{}
	for _, n := range nodeRange(groupSize) {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			eng := rmcast.New(env, rmcast.Config{
				Group:     1,
				OnDeliver: func(rmcast.Delivery) { delivered++ },
			})
			eng.SetView(view)
			engines[n] = eng
			return eng
		})
	}
	for i := 0; i < messages; i++ {
		i := i
		s.At(time.Duration(10+i*20)*time.Millisecond, func() {
			if err := engines[id.Node(i%groupSize+1)].Multicast([]byte("payload")); err != nil {
				log.Fatalf("flat multicast: %v", err)
			}
		})
	}
	s.Run(5 * time.Second)
	var requests uint64
	for _, eng := range engines {
		requests += eng.Counters().NacksSent
	}
	return s.Stats(), delivered, requests
}

func runHier() (netsim.Stats, int, uint64) {
	s := netsim.New(netsim.Config{
		Seed:    42,
		Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, 0.01),
	})
	topo := hier.Cluster(nodeRange(groupSize), clusterSize)
	delivered := 0
	engines := map[id.Node]*hier.Engine{}
	for _, n := range nodeRange(groupSize) {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			eng, err := hier.New(env, hier.Config{
				LocalGroup: 1,
				WideGroup:  2,
				Topology:   topo,
				OnDeliver:  func(hier.Delivery) { delivered++ },
			})
			if err != nil {
				log.Fatalf("hier.New: %v", err)
			}
			engines[n] = eng
			return eng
		})
	}
	for i := 0; i < messages; i++ {
		i := i
		s.At(time.Duration(10+i*20)*time.Millisecond, func() {
			if err := engines[id.Node(i%groupSize+1)].Multicast([]byte("payload")); err != nil {
				log.Fatalf("hier multicast: %v", err)
			}
		})
	}
	s.Run(5 * time.Second)
	var requests uint64
	for _, eng := range engines {
		requests += eng.Counters().NacksSent
	}
	return s.Stats(), delivered, requests
}
