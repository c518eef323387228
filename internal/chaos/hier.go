package chaos

import (
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
)

// hierClusterSize is the per-cluster node count of a hierarchical run.
const hierClusterSize = 3

// HierOptions parameterizes a hierarchical scenario run.
type HierOptions struct {
	// Seed fixes all randomness, as in Options.
	Seed int64
	// Nodes is the total group size, split into clusters. Defaults to 9.
	Nodes int
	// Msgs is the number of workload multicasts. Defaults to 40.
	Msgs int
	// Schedule overrides the generated schedule. Crash/restart events are
	// filtered out either way: the hierarchy's membership is static.
	Schedule Schedule
	// LossDomains, when positive, groups receivers into that many
	// correlated loss domains; see Options.LossDomains.
	LossDomains int
}

// HierTrace records a hierarchical scenario run.
type HierTrace struct {
	Opts     HierOptions
	Schedule Schedule
	Topology hier.Topology
	hierRun
}

// hierRun is the record both hierarchical scenarios keep.
type hierRun struct {
	Order []id.Node
	// Deliveries[n] is node n's delivery log in order.
	Deliveries map[id.Node][]hier.Delivery
	// Sent[payload] is the origin of each workload message.
	Sent map[string]id.Node
	// Flight is the run's shared flight recorder; see Trace.Flight.
	Flight *flightrec.Recorder
	// Recovery[n] is node n's end-of-run counter snapshot (local plus
	// wide engine on relays); the no-repair-storm invariant bounds it.
	Recovery map[id.Node]rmcast.Counters
	// Net is the simulator's end-of-run datagram statistics.
	Net netsim.Stats
}

// hierWindow is the fault window of the hierarchical scenarios.
const hierWindow = 4 * time.Second

// run executes a hierarchical scenario over nodes 1..nodes: engines
// configured per node by cfg on nc's network, the fault schedule and
// msgs seeded sends across hierWindow, then the settle. It returns the
// simulator and engines for the caller's end-of-run state.
func (r *hierRun) run(seed int64, nodes, msgs int, sched Schedule, nc NetConfig,
	cfg func(sim *Net, n id.Node) hier.Config) (*Net, map[id.Node]*hier.Engine) {
	r.Order = NodeIDs(nodes)
	r.Deliveries = make(map[id.Node][]hier.Delivery)
	r.Sent = make(map[string]id.Node)
	r.Flight = flightrec.New(8192)
	r.Recovery = make(map[id.Node]rmcast.Counters)
	sim := NewNet(nc)
	engines := make(map[id.Node]*hier.Engine, nodes)
	for _, n := range r.Order {
		c := cfg(sim, n)
		c.Flight = r.Flight
		c.OnDeliver = func(d hier.Delivery) { r.Deliveries[n] = append(r.Deliveries[n], d) }
		sim.AddNode(n, func(env proto.Env) proto.Handler {
			engines[n] = NewHier(env, n, c)
			return engines[n]
		})
	}
	sim.Faults(sched, 0, hierWindow, r.Order)
	seededSends(sim, seed, nodes, msgs, 0, hierWindow, hierSend(sim, engines, r.Sent))
	sim.Run(hierWindow + settleWindow)
	for n, eng := range engines {
		r.Recovery[n] = eng.Counters()
	}
	r.Net = sim.Stats()
	return sim, engines
}

// RunHier executes one seeded hierarchical scenario: a clustered group on
// the simulator under transient faults (partitions, loss and duplication
// bursts — never crashes, since the static topology cannot evict), with a
// randomized multicast workload. The relay chain means a wide-area
// partition severs clusters for its duration; the settle window plus NACK
// recovery must still deliver everything everywhere.
func RunHier(opts HierOptions) *HierTrace {
	if opts.Nodes <= 0 {
		opts.Nodes = 9
	}
	if opts.Msgs <= 0 {
		opts.Msgs = 40
	}
	sched := opts.Schedule
	if sched == nil {
		sched = Generate(opts.Seed, NodeIDs(opts.Nodes), hierWindow)
	}
	tr := &HierTrace{
		Opts:     opts,
		Schedule: sched.TransientOnly(),
		Topology: hier.Cluster(NodeIDs(opts.Nodes), hierClusterSize),
	}
	tr.run(opts.Seed, opts.Nodes, opts.Msgs, tr.Schedule,
		NetConfig{Seed: opts.Seed, Link: baseLink, LossDomains: opts.LossDomains},
		func(*Net, id.Node) hier.Config { return hier.Config{Topology: tr.Topology} })
	return tr
}

// hierSend is the hierarchical scenarios' workload step: an up sender
// multicasts its next keyed payload, recorded in sent if accepted.
func hierSend(sim *Net, engines map[id.Node]*hier.Engine, sent map[string]id.Node) func(int, id.Node) {
	counters := make(map[id.Node]uint64)
	return func(_ int, sender id.Node) {
		if !sim.Up(sender) {
			return
		}
		counters[sender]++
		payload := payloadKey(sender, counters[sender])
		if err := engines[sender].Multicast(payload); err != nil {
			counters[sender]--
			return
		}
		sent[string(payload)] = sender
	}
}

// Violations checks the hierarchical invariants on the deliveries seen
// as a flat trace: no-creation (origin attribution included),
// no-duplication, per-origin FIFO via the origin sequence numbers the
// envelope carries end to end, and relay completeness — every node
// delivers every sent message, which crossed its origin cluster, the
// relay group and every other cluster. Recovery stays bounded per node;
// requests and repairs are scoped to clusters (or the relay set), so the
// ceiling uses the larger of the two scopes, not the full group.
func (tr *HierTrace) Violations() []string {
	scope := max(hierClusterSize, len(tr.Topology.Relays()))
	flat := flatTrace(tr.Order, tr.Deliveries, tr.Sent, tr.Recovery, scope)
	out := append(flat.Safety(), flat.checkComplete("relay-completeness", tr.Order, func(id.Node) bool { return true })...)
	out = append(out, flat.checkNoRepairStorm()...)
	if len(tr.Sent) == 0 {
		out = append(out, "progress: workload sent nothing")
	}
	return out
}

// flatTrace views hierarchical deliveries as a flat run's trace, each
// origin a sender and all in one view, so the catalogue's checks apply;
// nodes scales the recovery bound.
func flatTrace(order []id.Node, dl map[id.Node][]hier.Delivery, sent map[string]id.Node,
	recovery map[id.Node]rmcast.Counters, nodes int) *Trace {
	tr := &Trace{
		Opts:  Options{Nodes: nodes, Ordering: rmcast.FIFO},
		Order: order,
		Nodes: make(map[id.Node]*NodeTrace, len(order)),
		Sent:  make(map[string]SentRec, len(sent)),
	}
	for key, origin := range sent {
		tr.Sent[key] = SentRec{Sender: origin}
	}
	for _, n := range order {
		nt := &NodeTrace{Node: n, Recovery: recovery[n]}
		for _, d := range dl[n] {
			nt.Deliveries = append(nt.Deliveries, Delivery{
				Delivery: rmcast.Delivery{Sender: d.Origin, Seq: d.Seq, Payload: d.Payload}})
		}
		tr.Nodes[n] = nt
	}
	return tr
}
