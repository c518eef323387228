package chaos

import (
	"fmt"
	"math/rand"
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
	Order    []id.Node
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
	const window = 4 * time.Second
	sched := opts.Schedule
	if sched == nil {
		sched = Generate(opts.Seed, nodeIDs(opts.Nodes), window)
	}
	sched = sched.TransientOnly()

	topo := hier.Cluster(nodeIDs(opts.Nodes), hierClusterSize)
	tr := &HierTrace{
		Opts:       opts,
		Schedule:   sched,
		Topology:   topo,
		Order:      nodeIDs(opts.Nodes),
		Deliveries: make(map[id.Node][]hier.Delivery),
		Sent:       make(map[string]id.Node),
		Flight:     flightrec.New(8192),
		Recovery:   make(map[id.Node]rmcast.Counters),
	}

	base := netsim.Link{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.02}
	cur := base
	sim := netsim.New(netsim.Config{
		Seed:    opts.Seed,
		Profile: func(_, _ id.Node) netsim.Link { return cur },
	})
	if d := opts.LossDomains; d > 0 {
		sim.SetLossDomains(func(n id.Node) int { return int(n) % d })
	}

	engines := make(map[id.Node]*hier.Engine, opts.Nodes)
	for _, n := range tr.Order {
		n := n
		sim.AddNode(n, func(env proto.Env) proto.Handler {
			eng, err := hier.New(env, hier.Config{
				LocalGroup: 1,
				WideGroup:  2,
				Topology:   topo,
				Flight:     tr.Flight,
				OnDeliver: func(d hier.Delivery) {
					tr.Deliveries[n] = append(tr.Deliveries[n], d)
				},
			})
			if err != nil {
				panic(fmt.Sprintf("chaos: hier.New(n%d): %v", n, err))
			}
			engines[n] = eng
			return eng
		})
	}

	applyFaults(sim, sched, 0, &cur, base, map[id.Node]time.Duration{})
	sim.At(window, func() { sim.Heal(); cur = base })

	wl := rand.New(rand.NewSource(opts.Seed + 1))
	counters := make(map[id.Node]uint64)
	for i := 0; i < opts.Msgs; i++ {
		sender := id.Node(1 + wl.Intn(opts.Nodes))
		at := time.Duration(wl.Int63n(int64(window)))
		sim.At(at, func() {
			counters[sender]++
			payload := payloadKey(sender, counters[sender])
			if err := engines[sender].Multicast(payload); err != nil {
				counters[sender]--
				return
			}
			tr.Sent[string(payload)] = sender
		})
	}

	sim.Run(window + settleWindow)
	for n, eng := range engines {
		tr.Recovery[n] = eng.Counters()
	}
	tr.Net = sim.Stats()
	return tr
}

// Violations checks the hierarchical invariants: relay completeness
// (every node delivers every sent message exactly once — the message
// crossed its origin cluster, the relay group and every other cluster),
// correct origin attribution, and per-origin FIFO via the origin sequence
// numbers the envelope carries end to end.
func (tr *HierTrace) Violations() []string {
	var out []string
	if len(tr.Sent) == 0 {
		out = append(out, "progress: workload sent nothing")
	}
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
		for key := range tr.Sent {
			if seen[key] == 0 {
				out = append(out, fmt.Sprintf(
					"relay-completeness: n%d never delivered %s", n, payloadName(key)))
			}
		}
	}
	// No repair storm: recovery stays bounded per node. Requests and
	// repairs are scoped to clusters (or the relay set), so the per-node
	// ceiling uses the larger of the two scopes, not the full group.
	scope := hierClusterSize
	if relays := len(tr.Topology.Relays()); relays > scope {
		scope = relays
	}
	reqBound, srvBound := repairStormBounds(scope)
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
