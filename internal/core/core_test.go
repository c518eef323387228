package core

import (
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

// stackNode bundles a stack with its observation logs.
type stackNode struct {
	stack   *Stack
	views   []member.View
	got     []rmcast.Delivery
	evicted bool
}

func addStack(s *netsim.Sim, n, contact id.Node, ord rmcast.Ordering) *stackNode {
	sn := &stackNode{}
	s.AddNode(n, func(env proto.Env) proto.Handler {
		sn.stack = NewStack(env, Config{
			Group:          1,
			Contact:        contact,
			Ordering:       ord,
			HeartbeatEvery: 40 * time.Millisecond,
			SuspectAfter:   200 * time.Millisecond,
			FlushTimeout:   300 * time.Millisecond,
		}, Hooks{
			OnView:    func(v member.View) { sn.views = append(sn.views, v) },
			OnDeliver: func(d rmcast.Delivery) { sn.got = append(sn.got, d) },
			OnEvicted: func() { sn.evicted = true },
		})
		return sn.stack
	})
	return sn
}

func TestStackJoinAndMulticast(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 61})
	a := addStack(s, 1, id.None, rmcast.FIFO)
	b := addStack(s, 2, 1, rmcast.FIFO)
	c := addStack(s, 3, 1, rmcast.FIFO)

	s.At(3*time.Second, func() {
		if err := a.stack.Multicast([]byte("after join")); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	})
	s.Run(6 * time.Second)

	for name, sn := range map[string]*stackNode{"a": a, "b": b, "c": c} {
		if sn.stack.View().Size() != 3 {
			t.Fatalf("%s view = %+v", name, sn.stack.View())
		}
		if len(sn.got) != 1 || string(sn.got[0].Payload) != "after join" {
			t.Fatalf("%s deliveries = %+v", name, sn.got)
		}
	}
}

func TestStackMessagesSurviveViewChange(t *testing.T) {
	// Messages in flight while a member crashes must reach all
	// survivors (virtual synchrony property, modulo the flush window).
	s := netsim.New(netsim.Config{Seed: 62})
	a := addStack(s, 1, id.None, rmcast.FIFO)
	b := addStack(s, 2, 1, rmcast.FIFO)
	c := addStack(s, 3, 1, rmcast.FIFO)

	const beforeCrash, afterCrash = 10, 10
	for i := 0; i < beforeCrash; i++ {
		i := i
		s.At(3*time.Second+time.Duration(i*10)*time.Millisecond, func() {
			a.stack.Multicast([]byte(fmt.Sprintf("pre-%d", i)))
		})
	}
	s.At(3500*time.Millisecond, func() { s.Crash(3) })
	for i := 0; i < afterCrash; i++ {
		i := i
		s.At(6*time.Second+time.Duration(i*10)*time.Millisecond, func() {
			a.stack.Multicast([]byte(fmt.Sprintf("post-%d", i)))
		})
	}
	s.Run(12 * time.Second)

	for name, sn := range map[string]*stackNode{"a": a, "b": b} {
		if sn.stack.View().Size() != 2 {
			t.Fatalf("%s final view = %+v", name, sn.stack.View())
		}
		if len(sn.got) != beforeCrash+afterCrash {
			t.Fatalf("%s delivered %d, want %d", name, len(sn.got), beforeCrash+afterCrash)
		}
	}
	_ = c
}

func TestStackCausalAcrossJoin(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 63})
	a := addStack(s, 1, id.None, rmcast.Causal)
	b := addStack(s, 2, 1, rmcast.Causal)
	s.At(2*time.Second, func() { a.stack.Multicast([]byte("m1")) })
	s.At(2200*time.Millisecond, func() { b.stack.Multicast([]byte("m2")) })
	s.Run(5 * time.Second)
	if len(a.got) != 2 || len(b.got) != 2 {
		t.Fatalf("deliveries a=%d b=%d", len(a.got), len(b.got))
	}
}

func TestStackTotalOrderAcrossMembers(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 64})
	nodes := []*stackNode{addStack(s, 1, id.None, rmcast.Total)}
	for n := id.Node(2); n <= 4; n++ {
		nodes = append(nodes, addStack(s, n, 1, rmcast.Total))
	}
	for i := 0; i < 20; i++ {
		i := i
		s.At(4*time.Second+time.Duration(i*20)*time.Millisecond, func() {
			nodes[i%len(nodes)].stack.Multicast([]byte{byte(i)})
		})
	}
	s.Run(12 * time.Second)
	ref := nodes[0]
	if len(ref.got) != 20 {
		t.Fatalf("node 1 delivered %d of 20", len(ref.got))
	}
	for i, sn := range nodes {
		if len(sn.got) != 20 {
			t.Fatalf("node %d delivered %d of 20", i+1, len(sn.got))
		}
		for j := range ref.got {
			if sn.got[j].Sender != ref.got[j].Sender || sn.got[j].Seq != ref.got[j].Seq {
				t.Fatalf("node %d order diverges at %d", i+1, j)
			}
		}
	}
}

func TestStackLeave(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 65})
	a := addStack(s, 1, id.None, rmcast.FIFO)
	b := addStack(s, 2, 1, rmcast.FIFO)
	s.At(3*time.Second, func() {
		b.stack.Leave()
		s.Crash(2)
	})
	s.Run(7 * time.Second)
	if a.stack.View().Size() != 1 {
		t.Fatalf("view after leave = %+v", a.stack.View())
	}
}

// addAutoStack builds a stack with the self-organizing overlay enabled,
// on a formation cadence fast enough for short simulated runs.
func addAutoStack(s *netsim.Sim, n, contact id.Node) *stackNode {
	sn := &stackNode{}
	s.AddNode(n, func(env proto.Env) proto.Handler {
		sn.stack = NewStack(env, Config{
			Group:          1,
			Contact:        contact,
			AutoHier:       true,
			HierFanOut:     4,
			HierForm:       hier.FormConfig{ProbeEvery: 100 * time.Millisecond},
			HeartbeatEvery: 40 * time.Millisecond,
			SuspectAfter:   200 * time.Millisecond,
			FlushTimeout:   300 * time.Millisecond,
		}, Hooks{
			OnView:    func(v member.View) { sn.views = append(sn.views, v) },
			OnDeliver: func(d rmcast.Delivery) { sn.got = append(sn.got, d) },
		})
		return sn.stack
	})
	return sn
}

// TestStackAutoHierFormsAndDelivers drives the full integration: nodes
// join through the flat membership layer, the admitted view seeds the
// overlay universe, the overlay forms under the fan-out bound, and an
// application multicast through the formed tree reaches everyone exactly
// once with correct origin attribution.
func TestStackAutoHierFormsAndDelivers(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 67})
	nodes := make(map[id.Node]*stackNode, 8)
	nodes[1] = addAutoStack(s, 1, id.None)
	for n := id.Node(2); n <= 8; n++ {
		nodes[n] = addAutoStack(s, n, 1)
	}
	s.At(6*time.Second, func() {
		if err := nodes[5].stack.Multicast([]byte("over the overlay")); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	})
	s.Run(10 * time.Second)

	for n, sn := range nodes {
		if sn.stack.View().Size() != 8 {
			t.Fatalf("n%d flat view = %+v", n, sn.stack.View())
		}
		h := sn.stack.Hier()
		if h == nil {
			t.Fatalf("n%d has no overlay engine", n)
		}
		topo := h.CurrentTopology()
		if topo.Size() != 8 {
			t.Fatalf("n%d overlay covers %d of 8 nodes: %+v", n, topo.Size(), topo)
		}
		for i, c := range topo.Clusters {
			if len(c) > 4 {
				t.Fatalf("n%d cluster %d exceeds fan-out: %v", n, i, c)
			}
		}
		if len(sn.got) != 1 {
			t.Fatalf("n%d delivered %d messages, want exactly 1", n, len(sn.got))
		}
		if d := sn.got[0]; d.Sender != 5 || d.Group != 1 || string(d.Payload) != "over the overlay" {
			t.Fatalf("n%d delivery = %+v", n, d)
		}
	}
}

// TestStackAutoHierOffIsInert pins the ablation at the core layer: with
// AutoHier unset, no overlay engine exists and nothing touches the
// derived group IDs.
func TestStackAutoHierOffIsInert(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 68})
	a := addStack(s, 1, id.None, rmcast.FIFO)
	b := addStack(s, 2, 1, rmcast.FIFO)
	s.At(3*time.Second, func() { a.stack.Multicast([]byte("flat")) })
	s.Run(5 * time.Second)
	if a.stack.Hier() != nil || b.stack.Hier() != nil {
		t.Fatal("static stacks built an overlay engine")
	}
	st := s.Stats()
	if got := st.SentByKind[wire.KindHierCtl] + st.SentByKind[wire.KindClockProbe] +
		st.SentByKind[wire.KindClockReply]; got != 0 {
		t.Fatalf("static stacks sent %d overlay datagrams, want 0", got)
	}
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1 each", len(a.got), len(b.got))
	}
}

func TestStackAccessors(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 66})
	a := addStack(s, 1, id.None, rmcast.FIFO)
	s.Run(time.Second)
	if a.stack.Joining() {
		t.Fatal("bootstrap node joining")
	}
	if a.stack.Evicted() {
		t.Fatal("bootstrap node evicted")
	}
	if a.stack.Member() == nil {
		t.Fatal("Member() nil")
	}
	if err := a.stack.Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if a.stack.Counters().Sent != 1 {
		t.Fatalf("counters = %+v", a.stack.Counters())
	}
}
