package experiments

import (
	"errors"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

// ackNode bundles an AckEngine with its delivery log.
type ackNode struct {
	ack *AckEngine
	got []rmcast.Delivery
}

func buildAckStatic(s *netsim.Sim, n int) map[id.Node]*ackNode {
	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)
	nodes := make(map[id.Node]*ackNode, n)
	for _, m := range members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			an := &ackNode{}
			an.ack = NewAck(env, rmcast.Config{
				Group:     1,
				OnDeliver: func(d rmcast.Delivery) { an.got = append(an.got, d) },
			})
			an.ack.SetView(view)
			nodes[m] = an
			return an.ack
		})
	}
	return nodes
}

func TestAckBasicDelivery(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 81})
	nodes := buildAckStatic(s, 3)
	s.At(10*time.Millisecond, func() {
		if err := nodes[1].ack.Multicast([]byte("ack hello")); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	})
	s.Run(2 * time.Second)
	for n, an := range nodes {
		if len(an.got) != 1 || string(an.got[0].Payload) != "ack hello" {
			t.Fatalf("node %s deliveries = %+v", n, an.got)
		}
	}
	// Full acknowledgment garbage-collects the pending entry.
	if got := nodes[1].ack.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after full ack", got)
	}
}

func TestAckNoView(t *testing.T) {
	s := netsim.New(netsim.Config{})
	var eng *AckEngine
	s.AddNode(1, func(env proto.Env) proto.Handler {
		eng = NewAck(env, rmcast.Config{Group: 1})
		return eng
	})
	if err := eng.Multicast([]byte("x")); !errors.Is(err, rmcast.ErrNoView) {
		t.Fatalf("err = %v", err)
	}
}

func TestAckTooLarge(t *testing.T) {
	s := netsim.New(netsim.Config{})
	nodes := buildAckStatic(s, 1)
	s.Run(time.Millisecond)
	if err := nodes[1].ack.Multicast(make([]byte, wire.MaxBody+1)); !errors.Is(err, rmcast.ErrPayloadTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestAckLossRecovery(t *testing.T) {
	s := netsim.New(netsim.Config{
		Seed:    82,
		Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, 0.2),
	})
	nodes := buildAckStatic(s, 4)
	const count = 30
	for i := 0; i < count; i++ {
		i := i
		s.At(time.Duration(10+i*5)*time.Millisecond, func() {
			nodes[2].ack.Multicast([]byte{byte(i)})
		})
	}
	s.Run(10 * time.Second)
	for n, an := range nodes {
		if len(an.got) != count {
			t.Fatalf("node %s delivered %d of %d under 20%% loss", n, len(an.got), count)
		}
		for i, d := range an.got {
			if d.Seq != uint64(i+1) {
				t.Fatalf("node %s FIFO violation at %d", n, i)
			}
		}
	}
	if nodes[2].ack.Outstanding() != 0 {
		t.Fatalf("sender still tracks %d messages", nodes[2].ack.Outstanding())
	}
	if nodes[2].ack.Counters().NacksServed == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
}

func TestAckImplosion(t *testing.T) {
	// The defining cost: one multicast on a loss-free network triggers
	// n-1 ACKs at the sender.
	s := netsim.New(netsim.Config{Seed: 83})
	n := 8
	nodes := buildAckStatic(s, n)
	s.At(10*time.Millisecond, func() {
		nodes[1].ack.Multicast([]byte("implode"))
	})
	s.Run(2 * time.Second)
	st := s.Stats()
	if got := st.SentByKind[wire.KindAck]; got != uint64(n-1) {
		t.Fatalf("ACK datagrams = %d, want %d", got, n-1)
	}
}

func TestAckViewReset(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 84})
	nodes := buildAckStatic(s, 2)
	s.At(10*time.Millisecond, func() { nodes[1].ack.Multicast([]byte("v1")) })
	v2 := member.NewView(2, []id.Node{1, 2})
	s.At(500*time.Millisecond, func() {
		nodes[1].ack.SetView(v2)
		nodes[2].ack.SetView(v2)
	})
	s.At(510*time.Millisecond, func() { nodes[1].ack.Multicast([]byte("v2")) })
	s.Run(3 * time.Second)
	an := nodes[2]
	if len(an.got) != 2 || an.got[1].Seq != 1 || an.got[1].View != 2 {
		t.Fatalf("deliveries = %+v", an.got)
	}
}

func TestAckMultipleSendersFIFO(t *testing.T) {
	s := netsim.New(netsim.Config{
		Seed:    85,
		Profile: netsim.LANProfile(time.Millisecond, 10*time.Millisecond, 0.05),
	})
	nodes := buildAckStatic(s, 3)
	const count = 20
	for i := 0; i < count; i++ {
		i := i
		s.At(time.Duration(10+i*5)*time.Millisecond, func() {
			nodes[1].ack.Multicast([]byte{1, byte(i)})
			nodes[2].ack.Multicast([]byte{2, byte(i)})
		})
	}
	s.Run(10 * time.Second)
	for n, an := range nodes {
		if len(an.got) != 2*count {
			t.Fatalf("node %s delivered %d of %d", n, len(an.got), 2*count)
		}
		seen := map[id.Node]uint64{}
		for _, d := range an.got {
			if d.Seq != seen[d.Sender]+1 {
				t.Fatalf("node %s: sender %s seq %d after %d",
					n, d.Sender, d.Seq, seen[d.Sender])
			}
			seen[d.Sender] = d.Seq
		}
	}
}
