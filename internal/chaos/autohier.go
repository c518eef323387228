package chaos

// Self-organizing hierarchy scenarios: the overlay forms and reshapes
// from RTT measurements while the full fault schedule — crashes
// included, unlike the static RunHier — churns the membership
// underneath it. Every topology a node installs is checked against the
// well-formedness invariant, and the run must end with all up nodes
// agreeing on one tree covering exactly the up set.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
)

// Formation cadence used by the auto-hierarchy scenarios; fast enough
// that formation, demotion and re-election all land well inside the
// fault window.
var autoHierForm = hier.FormConfig{
	ReportEvery:   150 * time.Millisecond,
	AnnounceEvery: 200 * time.Millisecond,
	ProbeEvery:    100 * time.Millisecond,
}

// AutoHierOptions parameterizes a self-organizing hierarchy run.
type AutoHierOptions struct {
	// Seed fixes all randomness, as in Options.
	Seed int64
	// Nodes is the total group size. Defaults to 12.
	Nodes int
	// FanOut bounds cluster sizes. Defaults to 6.
	FanOut int
	// Msgs is the number of workload multicasts. Defaults to 40.
	Msgs int
	// Schedule overrides the generated schedule. Unlike RunHier, crashes
	// and restarts are kept: reshaping is the mechanism under test.
	Schedule Schedule
	// Synthetic feeds the engines the true site distances instead of
	// running the clocksync prober — the ablation separating formation
	// logic from measurement noise (and the only practical mode at very
	// large n, where probe traffic would dominate).
	Synthetic bool
	// LossDomains, when positive, groups receivers into that many
	// correlated loss domains; see Options.LossDomains.
	LossDomains int
}

// TopoInstall is one recorded topology installation.
type TopoInstall struct {
	Node   id.Node
	At     time.Duration
	Epoch  uint64
	Leader id.Node
	Topo   hier.Topology
}

// AutoHierTrace records a self-organizing hierarchy run.
type AutoHierTrace struct {
	Opts     AutoHierOptions
	Schedule Schedule
	Order    []id.Node
	// Installs records every topology installation on every node, in
	// simulation order — the reshape decision log the invariants audit.
	Installs []TopoInstall
	// Deliveries[n] is node n's delivery log in order.
	Deliveries map[id.Node][]hier.Delivery
	// Sent[payload] is the origin of each workload message, with the
	// origin's crash history determining the completeness scope.
	Sent map[string]id.Node
	// CrashedEver marks nodes the schedule ever crashed.
	CrashedEver map[id.Node]bool
	// Up[n] is node n's liveness at end of run; FinalEpoch and FinalTopo
	// snapshot its installed tree.
	Up         map[id.Node]bool
	FinalEpoch map[id.Node]uint64
	FinalTopo  map[id.Node]hier.Topology
	// Flight is the run's shared flight recorder.
	Flight *flightrec.Recorder
	// Recovery[n] is node n's end-of-run counter snapshot.
	Recovery map[id.Node]rmcast.Counters
	// Net is the simulator's end-of-run datagram statistics.
	Net netsim.Stats
}

func (opts *AutoHierOptions) defaults() {
	if opts.Nodes <= 0 {
		opts.Nodes = 12
	}
	if opts.FanOut <= 0 {
		opts.FanOut = 6
	}
	if opts.Msgs <= 0 {
		opts.Msgs = 40
	}
}

// autoHierWindow is the fault window of auto-hierarchy scenarios.
const autoHierWindow = 4 * time.Second

// siteSize groups consecutive node IDs into latency sites of an
// AutoHier run.
const siteSize = 4

// siteDelay is the two-level delay geography the overlay should
// rediscover: 2ms within a site, 15ms across sites.
func siteDelay(a, b id.Node) time.Duration {
	if (int(a)-1)/siteSize == (int(b)-1)/siteSize {
		return 2 * time.Millisecond
	}
	return 15 * time.Millisecond
}

// RunAutoHier executes one seeded self-organizing hierarchy scenario:
// the full generated fault schedule (crashes, partitions, bursts) runs
// against a group that is simultaneously forming and reshaping its
// overlay, with a randomized multicast workload on top. After the heal
// and settle, the up nodes must have converged on one well-formed tree
// and recovered the deliverable workload.
func RunAutoHier(opts AutoHierOptions) *AutoHierTrace {
	opts.defaults()
	sched := opts.Schedule
	if sched == nil {
		sched = Generate(opts.Seed, nodeIDs(opts.Nodes), autoHierWindow)
	}
	tr := &AutoHierTrace{
		Opts:        opts,
		Schedule:    sched,
		Order:       nodeIDs(opts.Nodes),
		Deliveries:  make(map[id.Node][]hier.Delivery),
		Sent:        make(map[string]id.Node),
		CrashedEver: make(map[id.Node]bool),
		Up:          make(map[id.Node]bool),
		FinalEpoch:  make(map[id.Node]uint64),
		FinalTopo:   make(map[id.Node]hier.Topology),
		Flight:      flightrec.New(8192),
		Recovery:    make(map[id.Node]rmcast.Counters),
	}
	for _, ev := range sched {
		if ev.Kind == Crash {
			tr.CrashedEver[ev.Node] = true
		}
	}

	// The burst machinery mutates the shared overlay link; the per-pair
	// site delay stays fixed underneath it.
	base := netsim.Link{Jitter: time.Millisecond, Loss: 0.02}
	cur := base
	sim := netsim.New(netsim.Config{
		Seed: opts.Seed,
		Profile: func(from, to id.Node) netsim.Link {
			l := cur
			l.Delay = siteDelay(from, to)
			return l
		},
	})
	if d := opts.LossDomains; d > 0 {
		sim.SetLossDomains(func(n id.Node) int { return int(n) % d })
	}

	engines := make(map[id.Node]*hier.Engine, opts.Nodes)
	for _, n := range tr.Order {
		n := n
		form := autoHierForm
		form.OnInstall = func(epoch uint64, leader id.Node, topo hier.Topology) {
			tr.Installs = append(tr.Installs, TopoInstall{
				Node: n, At: sim.Elapsed(), Epoch: epoch, Leader: leader, Topo: topo,
			})
		}
		cfg := hier.Config{
			LocalGroup: 1,
			WideGroup:  2,
			AutoHier:   true,
			Members:    tr.Order,
			FanOut:     opts.FanOut,
			Form:       form,
			Flight:     tr.Flight,
			OnDeliver: func(d hier.Delivery) {
				tr.Deliveries[n] = append(tr.Deliveries[n], d)
			},
		}
		if opts.Synthetic {
			cfg.Distance = func(p id.Node) time.Duration { return siteDelay(n, p) }
		} else {
			cfg.ClockGroup = 3
		}
		sim.AddNode(n, func(env proto.Env) proto.Handler {
			eng, err := hier.New(env, cfg)
			if err != nil {
				panic(fmt.Sprintf("chaos: hier.New(n%d): %v", n, err))
			}
			engines[n] = eng
			return eng
		})
	}

	applyFaults(sim, sched, 0, &cur, base, map[id.Node]time.Duration{})
	sim.At(autoHierWindow, func() { sim.Heal(); cur = base })

	wl := rand.New(rand.NewSource(opts.Seed + 1))
	counters := make(map[id.Node]uint64)
	for i := 0; i < opts.Msgs; i++ {
		sender := id.Node(1 + wl.Intn(opts.Nodes))
		at := time.Duration(wl.Int63n(int64(autoHierWindow)))
		sim.At(at, func() {
			if !sim.Up(sender) {
				return
			}
			counters[sender]++
			payload := payloadKey(sender, counters[sender])
			if err := engines[sender].Multicast(payload); err != nil {
				counters[sender]--
				return
			}
			tr.Sent[string(payload)] = sender
		})
	}

	sim.Run(autoHierWindow + settleWindow)
	for n, eng := range engines {
		tr.Up[n] = sim.Up(n)
		tr.FinalEpoch[n] = eng.Epoch()
		tr.FinalTopo[n] = eng.CurrentTopology()
		tr.Recovery[n] = eng.Counters()
	}
	tr.Net = sim.Stats()
	return tr
}

// downIntervals reconstructs each node's down windows from the schedule
// (the fault script is deterministic, so this is exact).
func (tr *AutoHierTrace) downIntervals() map[id.Node][][2]time.Duration {
	out := make(map[id.Node][][2]time.Duration)
	down := make(map[id.Node]time.Duration)
	evs := append(Schedule(nil), tr.Schedule...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, ev := range evs {
		switch ev.Kind {
		case Crash:
			if _, dup := down[ev.Node]; !dup {
				down[ev.Node] = ev.At
			}
		case Restart:
			if start, ok := down[ev.Node]; ok {
				out[ev.Node] = append(out[ev.Node], [2]time.Duration{start, ev.At})
				delete(down, ev.Node)
			}
		}
	}
	const forever = time.Duration(1<<62 - 1)
	for n, start := range down {
		out[n] = append(out[n], [2]time.Duration{start, forever})
	}
	return out
}

// downFor returns how long node n had been continuously down at time t
// (zero if it was up).
func downFor(intervals map[id.Node][][2]time.Duration, n id.Node, t time.Duration) time.Duration {
	for _, iv := range intervals[n] {
		if t >= iv[0] && t < iv[1] {
			return t - iv[0]
		}
	}
	return 0
}

// Violations checks the self-organizing hierarchy invariants:
//
//   - hier-form: every installed topology is well-formed (unique cluster
//     membership, one in-cluster coordinator each, fan-out bound, no
//     relay cycles)
//   - live-coordinator: no node installs a tree whose coordinator had
//     already been down longer than the detection-plus-re-election
//     window when the tree arrived — dead coordinators must be demoted
//   - convergence: after the settle, all up nodes agree on one epoch and
//     one topology, covering exactly the up node set
//   - no-creation / origin / fifo / no-duplication: per-origin delivery
//     discipline holds through every reshape
//   - completeness: messages from never-crashed origins reach every node
//     that is up at the end of the run
//   - no-repair-storm: recovery stays bounded per node
//   - progress: the workload sent something
func (tr *AutoHierTrace) Violations() []string {
	var out []string
	if len(tr.Sent) == 0 {
		out = append(out, "progress: workload sent nothing")
	}

	// Structural well-formedness of every install.
	for _, inst := range tr.Installs {
		for _, v := range CheckHierTopology(inst.Topo, nil, tr.Opts.FanOut) {
			out = append(out, fmt.Sprintf(
				"%s (installed by n%d at %v, epoch %d from n%d)",
				v, inst.Node, inst.At, inst.Epoch, inst.Leader))
		}
	}

	// Dead coordinators must be demoted within the detection window.
	intervals := tr.downIntervals()
	allowance := autoHierForm.ReportEvery*3 + // SuspectAfter
		autoHierForm.AnnounceEvery*3 + time.Second // announce + propagation slack
	for _, inst := range tr.Installs {
		for i := range inst.Topo.Clusters {
			c := inst.Topo.RelayOf(i)
			if d := downFor(intervals, c, inst.At); d > allowance {
				out = append(out, fmt.Sprintf(
					"live-coordinator: n%d installed epoch %d at %v with coordinator n%d down for %v",
					inst.Node, inst.Epoch, inst.At, c, d))
			}
		}
	}

	// Convergence: all up nodes end on one tree covering the up set.
	var up []id.Node
	for _, n := range tr.Order {
		if tr.Up[n] {
			up = append(up, n)
		}
	}
	var refTopo hier.Topology
	var refEpoch uint64
	for i, n := range up {
		if i == 0 {
			refTopo, refEpoch = tr.FinalTopo[n], tr.FinalEpoch[n]
			continue
		}
		if tr.FinalEpoch[n] != refEpoch {
			out = append(out, fmt.Sprintf(
				"convergence: n%d ends at epoch %d, n%d at %d",
				n, tr.FinalEpoch[n], up[0], refEpoch))
		}
		if fmt.Sprint(tr.FinalTopo[n]) != fmt.Sprint(refTopo) {
			out = append(out, fmt.Sprintf(
				"convergence: n%d ends with a different topology than n%d", n, up[0]))
		}
	}
	if len(up) > 0 {
		out = append(out, CheckHierTopology(refTopo, up, tr.Opts.FanOut)...)
	}

	// Per-origin delivery discipline and scoped completeness.
	for _, n := range tr.Order {
		seen := make(map[string]int)
		lastSeq := make(map[id.Node]uint64)
		for _, d := range tr.Deliveries[n] {
			key := string(d.Payload)
			seen[key]++
			origin, ok := tr.Sent[key]
			if !ok {
				out = append(out, fmt.Sprintf(
					"no-creation: n%d delivered %s which was never sent",
					n, payloadName(key)))
				continue
			}
			if origin != d.Origin {
				out = append(out, fmt.Sprintf(
					"origin: n%d delivered %s attributed to n%d, sent by n%d",
					n, payloadName(key), d.Origin, origin))
			}
			if d.Seq <= lastSeq[d.Origin] {
				out = append(out, fmt.Sprintf(
					"fifo: n%d delivered n%d's seq %d after seq %d",
					n, d.Origin, d.Seq, lastSeq[d.Origin]))
			}
			lastSeq[d.Origin] = d.Seq
		}
		for key, count := range seen {
			if count > 1 {
				out = append(out, fmt.Sprintf(
					"no-duplication: n%d delivered %s %d times", n, payloadName(key), count))
			}
		}
		if !tr.Up[n] {
			continue // a crashed node owes nothing
		}
		for key, origin := range tr.Sent {
			if tr.CrashedEver[origin] {
				continue // a crashed origin's replay log may be gone
			}
			if seen[key] == 0 {
				out = append(out, fmt.Sprintf(
					"completeness: n%d never delivered %s (origin n%d never crashed)",
					n, payloadName(key), origin))
			}
		}
	}

	// No repair storm: clusters reshape, so the scope is the whole group.
	reqBound, srvBound := repairStormBounds(tr.Opts.Nodes)
	for _, n := range tr.Order {
		c := tr.Recovery[n]
		if c.NacksSent > reqBound {
			out = append(out, fmt.Sprintf(
				"no-repair-storm: n%d sent %d recovery requests (bound %d)",
				n, c.NacksSent, reqBound))
		}
		if c.NacksServed > srvBound {
			out = append(out, fmt.Sprintf(
				"no-repair-storm: n%d served %d repairs (bound %d)",
				n, c.NacksServed, srvBound))
		}
	}
	return out
}
