package failure

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// detNode bundles a detector with its recorded events.
type detNode struct {
	det    *Detector
	events []Event
}

// buildCluster creates n detectors monitoring each other in a simulation.
func buildCluster(s *netsim.Sim, n int, hb, suspect time.Duration) map[id.Node]*detNode {
	nodes := make(map[id.Node]*detNode, n)
	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	for _, m := range members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			dn := &detNode{}
			dn.det = New(env, Config{
				Group:          1,
				HeartbeatEvery: hb,
				SuspectAfter:   suspect,
				OnEvent:        func(ev Event) { dn.events = append(dn.events, ev) },
			})
			dn.det.SetPeers(members)
			nodes[m] = dn
			return dn.det
		})
	}
	return nodes
}

func TestNoFalseSuspicions(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 1})
	nodes := buildCluster(s, 4, 50*time.Millisecond, 250*time.Millisecond)
	s.Run(2 * time.Second)
	for n, dn := range nodes {
		if len(dn.events) != 0 {
			t.Errorf("node %s raised events on a healthy network: %+v", n, dn.events)
		}
		if got := len(dn.det.Alive()); got != 3 {
			t.Errorf("node %s Alive() = %d peers, want 3", n, got)
		}
	}
}

func TestCrashDetected(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 2})
	nodes := buildCluster(s, 4, 50*time.Millisecond, 250*time.Millisecond)
	s.At(500*time.Millisecond, func() { s.Crash(3) })
	s.Run(2 * time.Second)

	for n, dn := range nodes {
		if n == 3 {
			continue
		}
		if !dn.det.Suspected(3) {
			t.Errorf("node %s did not suspect crashed node 3", n)
			continue
		}
		var found *Event
		for i := range dn.events {
			if dn.events[i].Node == 3 && dn.events[i].Suspected {
				found = &dn.events[i]
				break
			}
		}
		if found == nil {
			t.Errorf("node %s has no suspicion event for node 3", n)
			continue
		}
		// Detection latency should be close to SuspectAfter.
		latency := found.At.Sub(time.Unix(0, 0).UTC().Add(500 * time.Millisecond))
		if latency < 200*time.Millisecond || latency > 500*time.Millisecond {
			t.Errorf("node %s detected crash after %v, want ~250-400ms", n, latency)
		}
		// No other node should be suspected.
		for _, ev := range dn.events {
			if ev.Node != 3 {
				t.Errorf("node %s spuriously suspected %s", n, ev.Node)
			}
		}
	}
}

func TestRecoveryClearsSuspicion(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 3})
	nodes := buildCluster(s, 3, 50*time.Millisecond, 200*time.Millisecond)
	s.At(300*time.Millisecond, func() { s.Crash(2) })
	s.At(time.Second, func() { s.Restart(2) })
	s.Run(2 * time.Second)

	dn := nodes[1]
	if dn.det.Suspected(2) {
		t.Fatal("node 1 still suspects recovered node 2")
	}
	var sawSuspect, sawClear bool
	for _, ev := range dn.events {
		if ev.Node != 2 {
			continue
		}
		if ev.Suspected {
			sawSuspect = true
		} else if sawSuspect {
			sawClear = true
		}
	}
	if !sawSuspect || !sawClear {
		t.Fatalf("events = %+v, want suspect then clear for node 2", dn.events)
	}
}

func TestLossToleratedBelowThreshold(t *testing.T) {
	// 20% loss must not cause suspicions when the timeout allows 5
	// missed heartbeats.
	s := netsim.New(netsim.Config{
		Seed:    4,
		Profile: netsim.LANProfile(time.Millisecond, time.Millisecond, 0.2),
	})
	nodes := buildCluster(s, 3, 40*time.Millisecond, 400*time.Millisecond)
	s.Run(3 * time.Second)
	for n, dn := range nodes {
		for _, ev := range dn.events {
			if ev.Suspected {
				t.Errorf("node %s suspected %s under mild loss", n, ev.Node)
			}
		}
	}
}

func TestSetPeersForgetsRemoved(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 5})
	nodes := buildCluster(s, 3, 50*time.Millisecond, 200*time.Millisecond)
	s.At(100*time.Millisecond, func() {
		nodes[1].det.SetPeers([]id.Node{1, 2}) // drop node 3 from monitoring
		s.Crash(3)
	})
	s.Run(2 * time.Second)
	if nodes[1].det.Suspected(3) {
		t.Fatal("unmonitored node reported suspected")
	}
	for _, ev := range nodes[1].events {
		if ev.Node == 3 {
			t.Fatalf("event for unmonitored node: %+v", ev)
		}
	}
}

func TestSelfNeverMonitored(t *testing.T) {
	s := netsim.New(netsim.Config{})
	var det *Detector
	s.AddNode(1, func(env proto.Env) proto.Handler {
		det = New(env, Config{Group: 1})
		det.SetPeers([]id.Node{1})
		return det
	})
	s.Run(2 * time.Second)
	if len(det.Alive()) != 0 {
		t.Fatalf("self appears in monitored set: %v", det.Alive())
	}
	if det.Suspected(1) {
		t.Fatal("self suspected")
	}
}

func TestForeignGroupHeartbeatIgnored(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 6})
	var d1 *Detector
	s.AddNode(1, func(env proto.Env) proto.Handler {
		d1 = New(env, Config{Group: 1, HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 200 * time.Millisecond})
		d1.SetPeers([]id.Node{1, 2})
		return d1
	})
	// Node 2 heartbeats on a different group only.
	s.AddNode(2, func(env proto.Env) proto.Handler {
		d := New(env, Config{Group: 9, HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 200 * time.Millisecond})
		d.SetPeers([]id.Node{1, 2})
		return d
	})
	s.Run(time.Second)
	if !d1.Suspected(2) {
		t.Fatal("foreign-group heartbeats kept the peer alive")
	}
}

func TestNonHeartbeatTrafficCountsAsLiveness(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 7})
	var d1 *Detector
	var env2 proto.Env
	s.AddNode(1, func(env proto.Env) proto.Handler {
		d1 = New(env, Config{Group: 1, HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 200 * time.Millisecond})
		d1.SetPeers([]id.Node{2})
		return d1
	})
	s.AddNode(2, func(env proto.Env) proto.Handler {
		env2 = env
		return proto.NewMux() // node 2 runs no detector at all
	})
	// Node 2 sends data messages often enough to stay alive.
	for off := 50 * time.Millisecond; off < 2*time.Second; off += 100 * time.Millisecond {
		off := off
		s.At(off, func() {
			env2.Send(1, &wire.Message{Kind: wire.KindData, Group: 1, Seq: 1})
		})
	}
	s.Run(2 * time.Second)
	if d1.Suspected(2) {
		t.Fatal("data traffic did not count as liveness")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := netsim.New(netsim.Config{})
	var det *Detector
	s.AddNode(1, func(env proto.Env) proto.Handler {
		det = New(env, Config{})
		return det
	})
	if det.cfg.HeartbeatEvery != DefaultHeartbeatEvery {
		t.Fatalf("HeartbeatEvery = %v", det.cfg.HeartbeatEvery)
	}
	if det.cfg.SuspectAfter != DefaultSuspectAfter {
		t.Fatalf("SuspectAfter = %v", det.cfg.SuspectAfter)
	}
}

// TestHeartbeatCrowdingSchedule is the slow-receiver regression for the
// liveness rule: a busy sender whose heartbeat slots are entirely crowded
// out by data bursts — zero heartbeats for the whole run, data arriving
// in clumps separated by gaps just under the suspicion threshold — must
// never be suspected, because any traffic refreshes the deadline. Once
// the bursts stop completely, suspicion must still arrive on schedule:
// the data traffic deferred it, not disabled it.
func TestHeartbeatCrowdingSchedule(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 8})
	const suspectAfter = 200 * time.Millisecond
	var d1 *Detector
	var events []Event
	var env2 proto.Env
	s.AddNode(1, func(env proto.Env) proto.Handler {
		d1 = New(env, Config{
			Group:          1,
			HeartbeatEvery: 50 * time.Millisecond,
			SuspectAfter:   suspectAfter,
			OnEvent:        func(ev Event) { events = append(events, ev) },
		})
		d1.SetPeers([]id.Node{2})
		return d1
	})
	s.AddNode(2, func(env proto.Env) proto.Handler {
		env2 = env
		return proto.NewMux() // no detector: node 2 never heartbeats
	})
	// Bursts of data every 180ms (inside the 200ms threshold), ten
	// back-to-back messages each — the crowding pattern of a sender whose
	// outbound queue is full of media traffic.
	lastBurst := time.Duration(0)
	for off := 20 * time.Millisecond; off < 2*time.Second; off += 180 * time.Millisecond {
		off := off
		lastBurst = off
		s.At(off, func() {
			for i := uint64(0); i < 10; i++ {
				env2.Send(1, &wire.Message{Kind: wire.KindData, Group: 1, Seq: i + 1})
			}
		})
	}
	var suspectedMid bool
	s.At(lastBurst, func() { suspectedMid = d1.Suspected(2) })
	s.Run(4 * time.Second)
	if suspectedMid {
		t.Error("peer suspected while its data bursts kept arriving")
	}
	for _, ev := range events {
		if ev.Suspected && ev.At.Sub(time.Time{}) < lastBurst+suspectAfter {
			t.Errorf("suspicion at %v, before the last burst's %v deadline",
				ev.At.Sub(time.Time{}), lastBurst+suspectAfter)
		}
	}
	if !d1.Suspected(2) {
		t.Error("peer never suspected after its traffic stopped for good")
	}
}

// manualEnv is a proto.Env whose clock the test moves by hand.
type manualEnv struct {
	now time.Time
}

func (e *manualEnv) Self() id.Node               { return 1 }
func (e *manualEnv) Now() time.Time              { return e.now }
func (e *manualEnv) Send(id.Node, *wire.Message) {}

// TestOwnFreezeIsNotPeerSilence stops the detector's own clock source for
// a second — a SIGSTOPped process, a VM frozen by its host — and checks
// that waking up does not suspect the peers it could not have heard,
// while a peer that stays silent afterwards is still caught on time.
func TestOwnFreezeIsNotPeerSilence(t *testing.T) {
	env := &manualEnv{now: time.Unix(1000, 0)}
	var events []Event
	d := New(env, Config{Group: 1, OnEvent: func(ev Event) { events = append(events, ev) }})
	d.SetPeers([]id.Node{1, 2, 3})
	beat := &wire.Message{Kind: wire.KindHeartbeat, Group: 1}
	run := func(dur time.Duration, heard ...id.Node) {
		for end := env.now.Add(dur); env.now.Before(end); {
			env.now = env.now.Add(5 * time.Millisecond)
			for _, p := range heard {
				d.OnMessage(p, beat)
			}
			d.OnTick(env.now)
		}
	}
	run(time.Second, 2, 3)
	env.now = env.now.Add(time.Second) // frozen: no tick, no message
	d.OnTick(env.now)
	if len(events) != 0 {
		t.Fatalf("waking from a freeze suspected peers: %+v", events)
	}
	run(DefaultSuspectAfter-20*time.Millisecond, 2) // n3 really is gone now
	if len(events) != 0 {
		t.Fatalf("n3 suspected %v early: %+v", 20*time.Millisecond, events)
	}
	run(40*time.Millisecond, 2)
	if len(events) != 1 || events[0].Node != 3 || !events[0].Suspected {
		t.Fatalf("events = %+v, want n3 suspected one timeout after the freeze", events)
	}
}
