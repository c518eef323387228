package core

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"scalamedia/internal/bulk"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// sent is one datagram a stack handed to its environment.
type sent struct {
	at    time.Duration
	from  id.Node
	to    id.Node
	kind  wire.Kind
	group id.Group
	body  []byte
}

// tapEnv records every datagram the stack above it sends.
type tapEnv struct {
	proto.Env
	sim *netsim.Sim
	log *[]sent
}

func (t tapEnv) Send(to id.Node, msg *wire.Message) {
	*t.log = append(*t.log, sent{at: t.sim.Elapsed(), from: t.Self(), to: to,
		kind: msg.Kind, group: msg.Group, body: append([]byte(nil), msg.Body...)})
	t.Env.Send(to, msg)
}

// rig is a simulated group of stacks whose datagrams are all recorded.
type rig struct {
	sim    *netsim.Sim
	stacks map[id.Node]*Stack
	log    []sent
}

func newRig(seed int64) *rig {
	return &rig{sim: netsim.New(netsim.Config{Seed: seed}), stacks: make(map[id.Node]*Stack)}
}

// add builds node n on group 1 (unless cfg names another), joining
// through node 1 unless it is node 1.
func (r *rig) add(n id.Node, cfg Config, h Hooks) {
	if cfg.Group == 0 {
		cfg.Group = 1
	}
	if n != 1 && cfg.Contact == id.None {
		cfg.Contact = 1
	}
	r.sim.AddNode(n, func(env proto.Env) proto.Handler {
		st := NewStack(tapEnv{Env: env, sim: r.sim, log: &r.log}, cfg, h)
		r.stacks[n] = st
		return st
	})
}

// gaps returns the intervals between consecutive recorded datagrams that
// match, sent within [from, to).
func (r *rig) gaps(from, to time.Duration, match func(sent) bool) []time.Duration {
	var out []time.Duration
	last := time.Duration(-1)
	for _, s := range r.log {
		if s.at < from || s.at >= to || !match(s) {
			continue
		}
		if last >= 0 {
			out = append(out, s.at-last)
		}
		last = s.at
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// muteJoiner asks node 1 to admit it once and then ignores everything, so
// a coordinator waits out its flush deadline on it.
type muteJoiner struct {
	env  proto.Env
	sent bool
}

func (m *muteJoiner) OnMessage(id.Node, *wire.Message) {}

func (m *muteJoiner) OnTick(time.Time) {
	if !m.sent {
		m.sent = true
		m.env.Send(1, &wire.Message{Kind: wire.KindJoinReq, Group: 1, Sender: m.env.Self(),
			Body: wire.AppendJoinBody(nil, "")})
	}
}

// tick is the simulator's default tick, the granularity of every timer.
const tick = 5 * time.Millisecond

// within reports whether d lies in [lo, hi].
func within(d, lo, hi time.Duration) bool { return d >= lo && d <= hi }

// TestEverySettingReachesItsEngine builds stacks with each Config field
// (and each hook) set to a value none of the layer defaults gives, and
// checks through behaviour or an accessor that the value reached the
// engine that reads it. Each row names the settings it pins; its check
// would fail if the stack dropped them on the way down.
func TestEverySettingReachesItsEngine(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Group Contact Snapshot OnState OnObject OnObjectProgress", func(t *testing.T) {
			r := newRig(101)
			var state []byte
			var objects []bulk.Object
			var progress int
			r.add(1, Config{Group: 42}, Hooks{Snapshot: func() []byte { return []byte("directory") }})
			r.add(2, Config{Group: 42}, Hooks{
				OnState:          func(_ member.View, b []byte) { state = b },
				OnObject:         func(o bulk.Object) { objects = append(objects, o) },
				OnObjectProgress: func(bulk.Progress) { progress++ },
			})
			r.sim.At(2*time.Second, func() {
				man, err := r.stacks[1].Bulk().Publish(7, make([]byte, 3000))
				if err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
				r.stacks[2].Bulk().Pull(man)
			})
			r.sim.Run(3 * time.Second)
			first := r.log[slices.IndexFunc(r.log, func(s sent) bool { return s.from == 2 })]
			if first.kind != wire.KindJoinReq || first.to != 1 {
				t.Errorf("node 2's first datagram = %s to %s, want a join request to its contact n1", first.kind, first.to)
			}
			kinds := map[wire.Kind]bool{}
			for _, s := range r.log {
				kinds[s.kind] = true
				if s.group != 42 {
					t.Fatalf("n%d sent %s on group %d, want 42", s.from, s.kind, s.group)
				}
			}
			if !kinds[wire.KindBulkReq] || !kinds[wire.KindBulkSym] {
				t.Errorf("no bulk traffic recorded: %v", kinds)
			}
			if r.stacks[2].View().Size() != 2 {
				t.Errorf("joiner view = %+v", r.stacks[2].View())
			}
			if string(state) != "directory" {
				t.Errorf("OnState got %q, want the coordinator's snapshot", state)
			}
			if len(objects) != 1 || objects[0].ID != 7 || progress == 0 {
				t.Errorf("objects %+v, %d progress reports", objects, progress)
			}
		}},
		{"Ordering OnDeliver", func(t *testing.T) {
			r := newRig(102)
			var got []rmcast.Delivery
			r.add(1, Config{Ordering: rmcast.Total}, Hooks{})
			r.add(2, Config{Ordering: rmcast.Total}, Hooks{OnDeliver: func(d rmcast.Delivery) { got = append(got, d) }})
			r.sim.At(2*time.Second, func() { r.stacks[2].Multicast([]byte("x")) })
			r.sim.Run(3 * time.Second)
			if r.sim.Stats().SentByKind[wire.KindOrderRange] == 0 {
				t.Error("total order sent no ordering ranges")
			}
			if len(got) != 1 || got[0].Group != 1 || string(got[0].Payload) != "x" {
				t.Errorf("deliveries %+v", got)
			}
		}},
		{"HeartbeatEvery", func(t *testing.T) {
			r := newRig(103)
			r.add(1, Config{HeartbeatEvery: 120 * time.Millisecond, SuspectAfter: time.Second}, Hooks{})
			r.add(2, Config{HeartbeatEvery: 120 * time.Millisecond, SuspectAfter: time.Second}, Hooks{})
			r.sim.Run(4 * time.Second)
			g := r.gaps(2*time.Second, 4*time.Second, func(s sent) bool { return s.from == 2 && s.kind == wire.KindHeartbeat })
			if len(g) == 0 || !within(median(g), 120*time.Millisecond, 120*time.Millisecond+tick) {
				t.Errorf("heartbeat gaps %v, want 120ms", g)
			}
		}},
		{"SuspectAfter OnView", func(t *testing.T) {
			r := newRig(104)
			var shrunk time.Duration
			cfg := Config{SuspectAfter: time.Second}
			r.add(1, cfg, Hooks{OnView: func(v member.View) {
				if v.Size() == 2 && shrunk == 0 {
					shrunk = r.sim.Elapsed()
				}
			}})
			r.add(2, cfg, Hooks{})
			r.add(3, cfg, Hooks{})
			r.sim.At(3*time.Second, func() { r.sim.Crash(3) })
			r.sim.Run(6 * time.Second)
			// Silence counts from n3's last heartbeat, up to one period
			// before the crash.
			if !within(shrunk, 3900*time.Millisecond, 4500*time.Millisecond) {
				t.Errorf("crashed member dropped at %v, want one SuspectAfter (1s) after its last heartbeat", shrunk)
			}
		}},
		{"FlushTimeout", func(t *testing.T) {
			r := newRig(105)
			r.add(1, Config{FlushTimeout: 250 * time.Millisecond}, Hooks{})
			r.add(2, Config{}, Hooks{})
			r.sim.At(2*time.Second, func() {
				r.sim.AddNode(3, func(env proto.Env) proto.Handler { return &muteJoiner{env: env} })
			})
			r.sim.Run(4 * time.Second)
			g := r.gaps(2*time.Second, 4*time.Second, func(s sent) bool { return s.from == 1 && s.to == 2 && s.kind == wire.KindViewPropose })
			if len(g) == 0 || !within(g[0], 250*time.Millisecond, 250*time.Millisecond+tick) {
				t.Errorf("re-proposal gaps %v, want the first at the 250ms flush deadline", g)
			}
		}},
		{"JoinRetry JoinBackoffMax JoinAttempts AdvertiseAddr OnJoinFailed", func(t *testing.T) {
			r := newRig(106)
			var failed error
			r.add(2, Config{Contact: 9, JoinRetry: 20 * time.Millisecond, JoinBackoffMax: 80 * time.Millisecond,
				JoinAttempts: 6, AdvertiseAddr: "192.0.2.7:4000"}, Hooks{OnJoinFailed: func(err error) { failed = err }})
			r.sim.Run(2 * time.Second)
			var joins []sent
			for _, s := range r.log {
				if s.kind == wire.KindJoinReq {
					joins = append(joins, s)
				}
			}
			if len(joins) != 6 {
				t.Fatalf("%d join requests, want JoinAttempts = 6", len(joins))
			}
			if addr, err := wire.DecodeJoinBody(joins[0].body); err != nil || addr != "192.0.2.7:4000" || joins[0].to != 9 {
				t.Errorf("join request to %s advertises %q (%v)", joins[0].to, addr, err)
			}
			// Waits are jittered over [base/2, base), base doubling from
			// JoinRetry up to JoinBackoffMax: the first stays under 20ms,
			// none reaches the 16 × JoinRetry default cap.
			for i := 1; i < len(joins); i++ {
				gap := joins[i].at - joins[i-1].at
				limit := 80 * time.Millisecond
				if i == 1 {
					limit = 20 * time.Millisecond
				}
				if gap > limit+tick {
					t.Errorf("join wait %d = %v, want at most %v", i, gap, limit)
				}
			}
			if !errors.Is(failed, member.ErrJoinUnreachable) || !r.stacks[2].Member().JoinFailed() {
				t.Errorf("OnJoinFailed got %v", failed)
			}
		}},
		{"AdvertiseAddr OnPeerAddr", func(t *testing.T) {
			r := newRig(107)
			learned := map[id.Node]string{}
			r.add(1, Config{}, Hooks{})
			r.add(2, Config{AdvertiseAddr: "192.0.2.7:4000"}, Hooks{})
			r.sim.At(time.Second, func() {
				r.add(3, Config{OnPeerAddr: func(n id.Node, a string) { learned[n] = a }}, Hooks{})
			})
			r.sim.Run(3 * time.Second)
			if learned[2] != "192.0.2.7:4000" {
				t.Errorf("n3 learned %v", learned)
			}
		}},
		{"ResendAfter", func(t *testing.T) {
			// The overlay's engines order FIFO, which never re-requests
			// ordering slots, so only the flat engine reads ResendAfter.
			r := newRig(108)
			cfg := Config{Ordering: rmcast.Total, ResendAfter: 100 * time.Millisecond, SuspectAfter: 10 * time.Second}
			r.add(1, cfg, Hooks{})
			r.add(2, cfg, Hooks{})
			r.sim.At(2*time.Second, func() {
				r.sim.BlockDirected(1, 2) // node 2 never hears the sequencer's ranges
				r.stacks[2].Multicast([]byte("x"))
			})
			r.sim.Run(3 * time.Second)
			g := r.gaps(2*time.Second, 3*time.Second, func(s sent) bool { return s.from == 2 && s.kind == wire.KindNackBatch })
			// The first request asks the sequencer; the retry follows
			// 1–1.5 × ResendAfter later, the next one 2–3 × ResendAfter.
			if len(g) < 2 || !within(g[0], 100*time.Millisecond, 150*time.Millisecond+tick) ||
				!within(g[1], 200*time.Millisecond, 300*time.Millisecond+tick) {
				t.Errorf("ordering re-request gaps %v, want the first in [100ms, 150ms], the second in [200ms, 300ms]", g)
			}
		}},
		{"StabilizeEvery", func(t *testing.T) {
			r := newRig(109)
			r.add(1, Config{StabilizeEvery: 60 * time.Millisecond}, Hooks{})
			r.add(2, Config{StabilizeEvery: 60 * time.Millisecond}, Hooks{})
			r.sim.At(2*time.Second, func() { r.stacks[2].Multicast([]byte("x")) })
			r.sim.Run(5 * time.Second)
			// In quiescence a member re-gossips its unchanged vector every
			// keepaliveFactor (4) stability periods.
			g := r.gaps(3*time.Second, 5*time.Second, func(s sent) bool { return s.from == 2 && s.kind == wire.KindStable })
			if len(g) == 0 || !within(median(g), 240*time.Millisecond, 240*time.Millisecond+tick) {
				t.Errorf("keepalive gossip gaps %v, want 4 × 60ms", g)
			}
		}},
		{"FlowWindow OnFlowOpen", func(t *testing.T) {
			r := newRig(110)
			opened := 0
			r.add(1, Config{FlowWindow: 2, OnFlowOpen: func() { opened++ }}, Hooks{})
			r.add(2, Config{}, Hooks{})
			var errs []error
			r.sim.At(2*time.Second, func() {
				for i := 0; i < 3; i++ {
					errs = append(errs, r.stacks[1].Multicast([]byte("x")))
				}
				if !r.stacks[1].FlowBlocked() || r.stacks[1].FlowOccupancy() != 2 {
					t.Errorf("blocked %v, occupancy %d", r.stacks[1].FlowBlocked(), r.stacks[1].FlowOccupancy())
				}
			})
			r.sim.Run(3 * time.Second)
			if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], rmcast.ErrBackpressure) {
				t.Errorf("multicast errors %v, want the third refused", errs)
			}
			if opened == 0 {
				t.Error("OnFlowOpen never fired after the window drained")
			}
		}},
		{"FlowWindowBytes", func(t *testing.T) {
			r := newRig(111)
			r.add(1, Config{FlowWindowBytes: 100}, Hooks{})
			r.add(2, Config{}, Hooks{})
			var errs []error
			r.sim.At(2*time.Second, func() {
				errs = append(errs, r.stacks[1].Multicast(make([]byte, 60)), r.stacks[1].Multicast(make([]byte, 60)))
			})
			r.sim.Run(3 * time.Second)
			if errs[0] != nil || !errors.Is(errs[1], rmcast.ErrBackpressure) {
				t.Errorf("multicast errors %v, want the second refused by the byte bound", errs)
			}
		}},
		{"SlowAfter OnSlow", func(t *testing.T) {
			r := newRig(112)
			type flag struct {
				peer id.Node
				lag  uint64
				slow bool
			}
			var flags []flag
			// A healthy member lags by the messages of one stability
			// period (about 8 here), the stalled one by everything.
			cfg := Config{SlowAfter: 20, SuspectAfter: 10 * time.Second}
			r.add(1, cfg, Hooks{OnSlow: func(p id.Node, lag uint64, slow bool) { flags = append(flags, flag{p, lag, slow}) }})
			r.add(2, cfg, Hooks{})
			r.add(3, cfg, Hooks{})
			r.sim.At(2*time.Second, func() { r.sim.Stall(3) })
			for i := 0; i < 40; i++ {
				r.sim.At(2100*time.Millisecond+time.Duration(i)*20*time.Millisecond, func() { r.stacks[1].Multicast([]byte("x")) })
			}
			r.sim.Run(3500 * time.Millisecond)
			if len(flags) != 1 || flags[0].peer != 3 || !flags[0].slow || flags[0].lag < 20 {
				t.Errorf("slow flags %+v, want only n3 flagged, at lag >= 20", flags)
			}
			if !slices.Contains(r.stacks[1].SlowMembers(), 3) {
				t.Errorf("membership slow set %v, want n3", r.stacks[1].SlowMembers())
			}
		}},
		{"SlowPolicy SlowGrace", func(t *testing.T) {
			r := newRig(113)
			var flagged, evicted time.Duration
			cfg := Config{SlowAfter: 20, SlowPolicy: member.EvictSlow, SlowGrace: 400 * time.Millisecond, SuspectAfter: 10 * time.Second}
			r.add(1, cfg, Hooks{
				OnSlow: func(p id.Node, _ uint64, slow bool) {
					if p == 3 && slow && flagged == 0 {
						flagged = r.sim.Elapsed()
					}
				},
				OnView: func(v member.View) {
					if flagged > 0 && !v.Contains(3) && evicted == 0 {
						evicted = r.sim.Elapsed()
					}
				},
			})
			r.add(2, cfg, Hooks{})
			r.add(3, cfg, Hooks{})
			r.sim.At(2*time.Second, func() { r.sim.Stall(3) })
			for i := 0; i < 100; i++ {
				r.sim.At(2100*time.Millisecond+time.Duration(i)*20*time.Millisecond, func() { r.stacks[1].Multicast([]byte("x")) })
			}
			r.sim.Run(5 * time.Second)
			if flagged == 0 || !within(evicted-flagged, 400*time.Millisecond, 1500*time.Millisecond) {
				t.Errorf("n3 flagged at %v, evicted at %v, want eviction after the 400ms grace and well before the 2s default", flagged, evicted)
			}
		}},
		{"AutoHier HierFanOut HierForm StabilizeEvery Metrics Flight OnDeliver", func(t *testing.T) {
			r := newRig(114)
			// Two latency sites of three nodes.
			r.sim.SetProfile(func(a, b id.Node) netsim.Link {
				if (a-1)/3 == (b-1)/3 {
					return netsim.Link{Delay: time.Millisecond}
				}
				return netsim.Link{Delay: 15 * time.Millisecond}
			})
			installs := 0
			cfg := Config{
				AutoHier:       true,
				HierFanOut:     2,
				StabilizeEvery: 60 * time.Millisecond,
				HierForm: hier.FormConfig{
					ProbeEvery:    80 * time.Millisecond,
					ReportEvery:   70 * time.Millisecond,
					AnnounceEvery: 90 * time.Millisecond,
					OnInstall:     func(uint64, id.Node, hier.Topology) { installs++ },
				},
			}
			reg := stats.NewRegistry()
			rec := flightrec.New(4096)
			var got []rmcast.Delivery
			for n := id.Node(1); n <= 6; n++ {
				c, h := cfg, Hooks{}
				if n == 3 {
					c.Metrics, c.Flight = reg, rec
					h.OnDeliver = func(d rmcast.Delivery) { got = append(got, d) }
				}
				r.add(n, c, h)
			}
			r.sim.At(5*time.Second, func() { r.stacks[2].Multicast([]byte("x")) })
			r.sim.Run(9 * time.Second)
			if len(got) != 1 || got[0].Group != 1 || got[0].Sender != 2 {
				t.Errorf("overlay deliveries %+v, want n2's message on group 1", got)
			}
			if reg.Counter("hier.topo_installs").Value() == 0 {
				t.Error("the overlay reported no topology installs to Metrics")
			}
			if !slices.ContainsFunc(rec.Dump(), func(ev flightrec.Event) bool { return ev.Code == flightrec.EvTopoInstall }) {
				t.Error("the overlay recorded no topology installs to Flight")
			}
			h := r.stacks[2].Hier()
			if h == nil {
				t.Fatal("AutoHier built no overlay engine")
			}
			topo := h.CurrentTopology()
			if topo.Size() != 6 {
				t.Fatalf("overlay covers %d of 6 nodes: %+v", topo.Size(), topo)
			}
			// The default fan-out would cluster each site whole.
			for _, c := range topo.Clusters {
				if len(c) > 2 {
					t.Errorf("cluster %v exceeds HierFanOut 2", c)
				}
			}
			if installs == 0 {
				t.Error("HierForm.OnInstall never fired")
			}
			leader := h.Leader()
			follower := id.Node(2)
			if follower == leader {
				follower = 3
			}
			ctl := func(from, to id.Node, ops ...byte) func(sent) bool {
				return func(s sent) bool {
					return s.from == from && s.to == to && s.kind == wire.KindHierCtl && len(s.body) > 0 &&
						slices.Contains(ops, s.body[0])
				}
			}
			checks := []struct {
				what  string
				match func(sent) bool
				every time.Duration
			}{
				{"clock probes", func(s sent) bool { return s.from == follower && s.to == leader && s.kind == wire.KindClockProbe }, 80 * time.Millisecond},
				{"distance reports", ctl(follower, leader, 1), 70 * time.Millisecond},
				{"leader beacons", ctl(leader, follower, 2, 3), 90 * time.Millisecond},
				// Keepalive gossip of the flat engine and of the overlay's
				// relay-set engine (group+2; every node coordinates a
				// singleton cluster here) both follow StabilizeEvery.
				{"flat gossip", func(s sent) bool {
					return s.from == follower && s.to == leader && s.kind == wire.KindStable && s.group == 1
				}, 240 * time.Millisecond},
				{"relay-set gossip", func(s sent) bool {
					return s.from == follower && s.to == leader && s.kind == wire.KindStable && s.group == 3
				}, 240 * time.Millisecond},
			}
			for _, c := range checks {
				g := r.gaps(6*time.Second, 9*time.Second, c.match)
				if len(g) == 0 || !within(median(g), c.every, c.every+tick) {
					t.Errorf("%s: gaps %v, want %v", c.what, g, c.every)
				}
			}
		}},
		{"PrimaryPartition", func(t *testing.T) {
			r := newRig(115)
			minViews := map[id.Node]int{}
			for n := id.Node(1); n <= 3; n++ {
				n := n
				r.add(n, Config{PrimaryPartition: true}, Hooks{OnView: func(v member.View) {
					if r.sim.Elapsed() > 2*time.Second && (minViews[n] == 0 || v.Size() < minViews[n]) {
						minViews[n] = v.Size()
					}
				}})
			}
			r.sim.At(2*time.Second, func() { r.sim.Partition([]id.Node{1}, []id.Node{2, 3}) })
			r.sim.Run(5 * time.Second)
			if r.stacks[1].View().Size() != 3 || minViews[1] != 0 {
				t.Errorf("minority n1 view %+v (smallest installed %d), want it blocked at 3", r.stacks[1].View(), minViews[1])
			}
			if r.stacks[2].View().Size() != 2 {
				t.Errorf("majority view %+v, want {n2, n3}", r.stacks[2].View())
			}
		}},
		{"Metrics MetricsPrefix Flight OnEvicted", func(t *testing.T) {
			r := newRig(116)
			reg := stats.NewRegistry()
			rec := flightrec.New(1024)
			evicted := false
			r.add(1, Config{Metrics: reg, MetricsPrefix: "flat.", Flight: rec, PrimaryPartition: true}, Hooks{})
			r.add(2, Config{PrimaryPartition: true}, Hooks{OnEvicted: func() { evicted = true }})
			r.add(3, Config{PrimaryPartition: true}, Hooks{})
			r.sim.At(2*time.Second, func() { r.stacks[1].Multicast([]byte("x")) })
			// The majority drops the cut-off n2, which learns it on the heal.
			r.sim.At(2500*time.Millisecond, func() { r.sim.Partition([]id.Node{1, 3}, []id.Node{2}) })
			r.sim.At(3500*time.Millisecond, func() { r.sim.Heal() })
			r.sim.Run(5 * time.Second)
			names := strings.Join(reg.CounterNames(), " ")
			for _, p := range []string{"flat.", "member.", "bulk."} {
				if !strings.Contains(names, p) {
					t.Errorf("no %s* counters in %s", p, names)
				}
			}
			if strings.Contains(names, "rmcast.") {
				t.Errorf("MetricsPrefix ignored: %s", names)
			}
			codes := map[flightrec.Code]bool{}
			for _, ev := range rec.Dump() {
				codes[ev.Code] = true
			}
			if !codes[flightrec.EvSend] || !codes[flightrec.EvViewInstall] {
				t.Errorf("flight recorder lacks rmcast or member events: %v", codes)
			}
			if !evicted {
				t.Error("OnEvicted never fired for the cut-off member")
			}
		}},
	}
	names := make([]string, len(tests))
	for i, tc := range tests {
		names[i] = tc.name
		t.Run(tc.name, tc.run)
	}
	// Every Config field and hook is named by some row.
	var missing []string
	for _, f := range configFieldNames() {
		if !slices.ContainsFunc(names, func(n string) bool { return slices.Contains(strings.Fields(n), f) }) {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("settings no row pins: %v", missing)
	}
}

// configFieldNames lists the settable fields of Config and Hooks.
func configFieldNames() []string {
	var out []string
	for _, t := range []reflect.Type{reflect.TypeOf(Config{}), reflect.TypeOf(Hooks{})} {
		for i := 0; i < t.NumField(); i++ {
			out = append(out, t.Field(i).Name)
		}
	}
	return out
}
