package rmcast

import (
	"errors"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// buildFlow creates n engines sharing a static view, with the config
// adjusted by mut before construction — the flow-control variant of
// buildStatic.
func buildFlow(s *netsim.Sim, n int, mut func(*Config)) map[id.Node]*rmNode {
	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)
	nodes := make(map[id.Node]*rmNode, n)
	for _, m := range members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			rn := &rmNode{env: env}
			cfg := Config{
				Group:     1,
				Ordering:  FIFO,
				OnDeliver: func(d Delivery) { rn.record(d) },
			}
			if mut != nil {
				mut(&cfg)
			}
			rn.eng = New(env, cfg)
			rn.eng.SetView(view)
			nodes[m] = rn
			return rn.eng
		})
	}
	return nodes
}

// TestFlowWindowBackpressure pins the stability-window contract: with a
// receiver stalled, a sender accepts exactly FlowWindow multicasts, then
// refuses with ErrBackpressure without growing its history; when the
// receiver resumes and stability catches up, OnFlowOpen fires and sends
// flow again.
func TestFlowWindowBackpressure(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 3})
	const window = 4
	opened := 0
	nodes := buildFlow(s, 2, func(c *Config) {
		c.FlowWindow = window
		c.OnFlowOpen = func() { opened++ }
	})
	var errs []error
	s.At(10*time.Millisecond, func() {
		s.Stall(2)
		for i := 0; i < window+3; i++ {
			errs = append(errs, nodes[1].eng.Multicast([]byte{byte(i)}))
		}
		if got := nodes[1].eng.FlowOccupancy(); got != window {
			t.Errorf("occupancy while blocked = %d, want %d", got, window)
		}
		if !nodes[1].eng.FlowBlocked() {
			t.Error("FlowBlocked() = false with the window full")
		}
	})
	s.At(500*time.Millisecond, func() { s.Resume(2) })
	var lateErr error
	s.At(2*time.Second, func() { lateErr = nodes[1].eng.Multicast([]byte("late")) })
	s.Run(3 * time.Second)

	for i, err := range errs {
		if i < window && err != nil {
			t.Errorf("send %d: %v, want accepted", i, err)
		}
		if i >= window && !errors.Is(err, ErrBackpressure) {
			t.Errorf("send %d: %v, want ErrBackpressure", i, err)
		}
	}
	if got := nodes[1].eng.Counters().FlowRejected; got != 3 {
		t.Errorf("FlowRejected = %d, want 3", got)
	}
	if opened == 0 {
		t.Error("OnFlowOpen never fired after the receiver resumed")
	}
	if lateErr != nil {
		t.Errorf("post-drain send: %v, want accepted", lateErr)
	}
	if nodes[1].eng.FlowBlocked() {
		t.Error("still blocked after drain")
	}
	// The stalled receiver must end with every accepted message, none of
	// the rejected ones: window accepts + the post-drain send.
	if got := len(nodes[2].got); got != window+1 {
		t.Errorf("receiver delivered %d, want %d", got, window+1)
	}
}

// TestFlowWindowBytes pins the byte-budget form of the window: small
// messages stay under the message bound but the byte bound still
// backpressures.
func TestFlowWindowBytes(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 4})
	nodes := buildFlow(s, 2, func(c *Config) {
		c.FlowWindow = 100
		c.FlowWindowBytes = 64
	})
	var errs []error
	s.At(10*time.Millisecond, func() {
		s.Stall(2)
		for i := 0; i < 4; i++ {
			errs = append(errs, nodes[1].eng.Multicast(make([]byte, 30)))
		}
	})
	s.Run(100 * time.Millisecond)
	accepted := 0
	for _, err := range errs {
		if err == nil {
			accepted++
		} else if !errors.Is(err, ErrBackpressure) {
			t.Fatalf("unexpected error %v", err)
		}
	}
	// 30-byte payloads against a 64-byte budget: two fit, the third would
	// exceed it and is refused up front.
	if accepted != 2 {
		t.Fatalf("accepted %d sends, want 2 (byte budget 64, 30B each)", accepted)
	}
}

// TestFlowWindowViewChange pins the reset semantics: a window wedged by a
// stalled member reopens when a view change removes that member, because
// the surviving members' acks are what stability now needs.
func TestFlowWindowViewChange(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 5})
	const window = 3
	nodes := buildFlow(s, 3, func(c *Config) { c.FlowWindow = window })
	s.At(10*time.Millisecond, func() {
		s.Stall(3)
		for i := 0; i < window; i++ {
			if err := nodes[1].eng.Multicast([]byte{byte(i)}); err != nil {
				t.Errorf("fill send %d: %v", i, err)
			}
		}
		if err := nodes[1].eng.Multicast([]byte("x")); !errors.Is(err, ErrBackpressure) {
			t.Errorf("overflow send: %v, want ErrBackpressure", err)
		}
	})
	// The membership layer would evict n3 and install a two-member view on
	// both survivors; here the test drives the installs directly.
	s.At(300*time.Millisecond, func() {
		v := member.NewView(2, []id.Node{1, 2})
		nodes[1].eng.SetView(v)
		nodes[2].eng.SetView(v)
	})
	var lateErr error
	s.At(1500*time.Millisecond, func() { lateErr = nodes[1].eng.Multicast([]byte("after")) })
	s.Run(3 * time.Second)
	if lateErr != nil {
		t.Fatalf("send after eviction view: %v, want accepted (window must reopen)", lateErr)
	}
	if nodes[1].eng.FlowBlocked() {
		t.Fatal("window still blocked after the stalled member left the view")
	}
}

// TestSlowFlagHysteresis pins the slow-member detector: a stalled
// receiver is flagged once its gossiped ack vector lags SlowAfter behind,
// stays flagged while it hovers, and is cleared only after it catches
// back up past the hysteresis band.
func TestSlowFlagHysteresis(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 6})
	type transition struct {
		peer id.Node
		slow bool
	}
	var log []transition
	nodes := buildFlow(s, 2, func(c *Config) {
		c.SlowAfter = 4
		c.OnSlow = func(peer id.Node, lag uint64, slow bool) {
			log = append(log, transition{peer: peer, slow: slow})
		}
	})
	s.At(10*time.Millisecond, func() {
		s.Stall(2)
		for i := 0; i < 8; i++ {
			if err := nodes[1].eng.Multicast([]byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	s.At(time.Second, func() {
		if got := nodes[1].eng.SlowPeers(); len(got) != 1 || got[0] != 2 {
			t.Errorf("SlowPeers() = %v while n2 is stalled, want [2]", got)
		}
		s.Resume(2)
	})
	s.Run(3 * time.Second)
	if len(log) < 2 {
		t.Fatalf("transitions = %v, want flag then clear", log)
	}
	if first := log[0]; first.peer != 2 || !first.slow {
		t.Fatalf("first transition = %+v, want n2 flagged slow", first)
	}
	if last := log[len(log)-1]; last.peer != 2 || last.slow {
		t.Fatalf("last transition = %+v, want n2 cleared", last)
	}
	if got := nodes[1].eng.SlowPeers(); len(got) != 0 {
		t.Fatalf("SlowPeers() = %v after catch-up, want empty", got)
	}
}

// TestFrozenQueueFullRefuses pins the view-change send queue's bound: a
// frozen engine defers maxQueuedSends multicasts for the next view and
// refuses the next one with ErrBackpressure instead of dropping it while
// reporting success. Every accepted send is delivered, in order, once the
// view installs.
func TestFrozenQueueFullRefuses(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 5})
	nodes := buildFlow(s, 3, nil)
	var errs []error
	s.At(10*time.Millisecond, func() {
		nodes[1].eng.Freeze()
		for i := 0; i <= maxQueuedSends; i++ {
			errs = append(errs, nodes[1].eng.Multicast([]byte{byte(i >> 8), byte(i)}))
		}
	})
	s.At(20*time.Millisecond, func() {
		next := member.NewView(2, []id.Node{1, 2, 3})
		for _, m := range []id.Node{2, 3, 1} { // receivers first: no future-view buffering
			nodes[m].eng.SetView(next)
		}
	})
	s.Run(5 * time.Second)

	for i, err := range errs[:maxQueuedSends] {
		if err != nil {
			t.Fatalf("send %d while frozen: %v, want queued", i, err)
		}
	}
	if err := errs[maxQueuedSends]; !errors.Is(err, ErrBackpressure) {
		t.Fatalf("send %d with the queue full: %v, want ErrBackpressure", maxQueuedSends, err)
	}
	for _, m := range []id.Node{1, 2, 3} {
		got := nodes[m].got
		if len(got) != maxQueuedSends {
			t.Fatalf("node %d delivered %d, want %d", m, len(got), maxQueuedSends)
		}
		for i, d := range got {
			if want := []byte{byte(i >> 8), byte(i)}; string(d.Payload) != string(want) {
				t.Fatalf("node %d delivery %d = %v, want %v", m, i, d.Payload, want)
			}
		}
	}
}
