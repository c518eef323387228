package chaos

// Self-organizing hierarchy scenarios: the overlay forms and reshapes
// from RTT measurements while the full fault schedule — crashes
// included, unlike the static RunHier — churns the membership
// underneath it. Every topology a node installs is checked against the
// well-formedness invariant, and the run must end with all up nodes
// agreeing on one tree covering exactly the up set.

import (
	"fmt"
	"sort"
	"time"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
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

// AutoHierTrace records a self-organizing hierarchy run. Sent's origins'
// crash histories determine the completeness scope.
type AutoHierTrace struct {
	Opts     AutoHierOptions
	Schedule Schedule
	// Installs records every topology installation on every node, in
	// simulation order — the reshape decision log the invariants audit.
	Installs []TopoInstall
	// CrashedEver marks nodes the schedule ever crashed.
	CrashedEver map[id.Node]bool
	// Up[n] is node n's liveness at end of run; FinalEpoch and FinalTopo
	// snapshot its installed tree.
	Up         map[id.Node]bool
	FinalEpoch map[id.Node]uint64
	FinalTopo  map[id.Node]hier.Topology
	hierRun
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

// siteDelay is the geography the overlay should rediscover: sites of
// four consecutive IDs, 15ms apart.
var siteDelay = Sites(4, 15*time.Millisecond)

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
		sched = Generate(opts.Seed, NodeIDs(opts.Nodes), hierWindow)
	}
	tr := &AutoHierTrace{
		Opts:        opts,
		Schedule:    sched,
		CrashedEver: make(map[id.Node]bool),
		Up:          make(map[id.Node]bool),
		FinalEpoch:  make(map[id.Node]uint64),
		FinalTopo:   make(map[id.Node]hier.Topology),
	}
	for _, ev := range sched {
		if ev.Kind == Crash {
			tr.CrashedEver[ev.Node] = true
		}
	}

	// Bursts change the shared link; the per-pair site delay stays fixed
	// underneath it.
	nc := NetConfig{
		Seed:        opts.Seed,
		Link:        netsim.Link{Jitter: time.Millisecond, Loss: 0.02},
		Sites:       siteDelay,
		LossDomains: opts.LossDomains,
	}
	sim, engines := tr.run(opts.Seed, opts.Nodes, opts.Msgs, sched, nc, func(sim *Net, n id.Node) hier.Config {
		form := autoHierForm
		form.OnInstall = func(epoch uint64, leader id.Node, topo hier.Topology) {
			tr.Installs = append(tr.Installs, TopoInstall{
				Node: n, At: sim.Elapsed(), Epoch: epoch, Leader: leader, Topo: topo,
			})
		}
		cfg := hier.Config{AutoHier: true, Members: tr.Order, FanOut: opts.FanOut, Form: form}
		if opts.Synthetic {
			cfg.Distance = func(p id.Node) time.Duration { return siteDelay(n, p) }
		} else {
			cfg.ClockGroup = 3
		}
		return cfg
	})
	for n, eng := range engines {
		tr.Up[n] = sim.Up(n)
		tr.FinalEpoch[n] = eng.Epoch()
		tr.FinalTopo[n] = eng.CurrentTopology()
	}
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
//   - no-creation / no-duplication / fifo: per-origin delivery
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

	// Per-origin delivery discipline through every reshape, and
	// completeness: an up node owes every message from an origin that
	// never crashed (a crashed origin's replay log may be gone). Clusters
	// reshape, so the recovery scope is the whole group.
	flat := flatTrace(tr.Order, tr.Deliveries, tr.Sent, tr.Recovery, tr.Opts.Nodes)
	out = append(out, flat.Safety()...)
	out = append(out, flat.checkComplete("completeness", up, func(o id.Node) bool { return !tr.CrashedEver[o] })...)
	return append(out, flat.checkNoRepairStorm()...)
}
