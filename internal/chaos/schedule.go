// Package chaos is a seeded, deterministic fault-schedule engine for the
// protocol stack, and the one group builder every simulation in the repo
// goes through. NewNet builds the simulated network — link, site delays,
// loss domains — and applies scripted and randomized fault events to it:
// node crash/restart, network partition/heal, loss bursts, message
// duplication, stalls and slow links. The scenario runners (Run, RunHier,
// RunAutoHier, RunSession, RunMsync) and RunGroup, the measured group run
// under the experiments and cmd/mmsim, record every delivery, view
// install and eviction into a trace that a library of invariant checkers
// inspects afterwards: virtual synchrony agreement, FIFO/causal/total
// ordering safety, no-duplication, no-creation, validity,
// view-convergence liveness, stability garbage collection, hierarchical
// relay completeness and bounded media skew.
//
// Every run is (seed, schedule)-reproducible: the schedule is either
// passed in or generated from the seed, all randomness inside the
// simulator derives from the seed, and a failing test prints the exact
// command to replay the run.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"scalamedia/internal/id"
)

// EventKind discriminates fault events.
type EventKind int

// The fault event kinds.
const (
	// Crash fails a node: it stops ticking, sending and receiving.
	Crash EventKind = iota + 1
	// Restart revives a crashed node with its engine state intact.
	Restart
	// PartitionSplit splits the network into the event's groups.
	PartitionSplit
	// Heal removes any partition.
	Heal
	// LossBurst raises loss (and jitter) on every link for Dur.
	LossBurst
	// DupBurst raises the duplication probability on every link for Dur.
	DupBurst
	// AsymmetricPartition blocks the Node→Peer direction for Dur while
	// leaving Peer→Node intact: Peer hears Node but cannot answer from
	// Node's perspective. This is the self-healing membership stress
	// case — a joiner whose requests arrive but whose admission traffic
	// is blackholed must be quarantined, not wedge the coordinator.
	AsymmetricPartition
	// Stall wedges a node's receive path for Dur: the node stays up —
	// ticking, sending heartbeats and gossiping its (now stale) stability
	// vector — but drains no inbound traffic until the stall lifts, when
	// the whole backlog is delivered in order. This is the slow-receiver
	// case the flow-control and slow-member machinery exists for, and it
	// is deliberately NOT a crash: peers keep hearing the node, so the
	// failure detector must not be the thing that handles it.
	Stall
	// SlowLink inflates the propagation delay of every link touching
	// Node by Delay for Dur: a congested last hop rather than a wedged
	// process. The node keeps draining, just late.
	SlowLink
)

// String returns the kind's schedule-notation name.
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case PartitionSplit:
		return "partition"
	case Heal:
		return "heal"
	case LossBurst:
		return "loss"
	case DupBurst:
		return "dup"
	case AsymmetricPartition:
		return "asym"
	case Stall:
		return "stall"
	case SlowLink:
		return "slowlink"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the offset from the start of the fault window.
	At time.Duration
	// Kind selects the fault.
	Kind EventKind
	// Node targets Crash and Restart, and is the blocked sender for
	// AsymmetricPartition.
	Node id.Node
	// Peer is the unreachable receiver for AsymmetricPartition: traffic
	// Node→Peer is dropped, Peer→Node flows.
	Peer id.Node
	// Groups holds the partition sides for PartitionSplit.
	Groups [][]id.Node
	// Loss is the burst loss probability for LossBurst, and Dup the
	// duplication probability for DupBurst.
	Loss float64
	Dup  float64
	// Dur is how long a burst lasts before reverting.
	Dur time.Duration
	// Delay is the extra per-link propagation delay for SlowLink.
	Delay time.Duration
}

// String renders one event in compact schedule notation.
func (e Event) String() string {
	switch e.Kind {
	case Crash, Restart:
		return fmt.Sprintf("%v %s n%d", e.At, e.Kind, e.Node)
	case PartitionSplit:
		var sides []string
		for _, g := range e.Groups {
			var ns []string
			for _, n := range g {
				ns = append(ns, fmt.Sprintf("n%d", n))
			}
			sides = append(sides, strings.Join(ns, ","))
		}
		return fmt.Sprintf("%v partition %s", e.At, strings.Join(sides, "|"))
	case Heal:
		return fmt.Sprintf("%v heal", e.At)
	case LossBurst:
		return fmt.Sprintf("%v loss %.2f for %v", e.At, e.Loss, e.Dur)
	case DupBurst:
		return fmt.Sprintf("%v dup %.2f for %v", e.At, e.Dup, e.Dur)
	case AsymmetricPartition:
		return fmt.Sprintf("%v asym n%d->n%d for %v", e.At, e.Node, e.Peer, e.Dur)
	case Stall:
		return fmt.Sprintf("%v stall n%d for %v", e.At, e.Node, e.Dur)
	case SlowLink:
		return fmt.Sprintf("%v slowlink n%d +%v for %v", e.At, e.Node, e.Delay, e.Dur)
	default:
		return fmt.Sprintf("%v %s", e.At, e.Kind)
	}
}

// Schedule is an ordered fault script.
type Schedule []Event

// String renders the whole schedule on one line.
func (s Schedule) String() string {
	if len(s) == 0 {
		return "(no faults)"
	}
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Generate derives a randomized fault schedule from a seed: crash/restart
// pairs (occasionally a permanent crash), majority-preserving partitions
// with heals, and loss/duplication bursts, spread over a fault window of
// the given length. At most a minority of nodes is ever down at once and
// every partition keeps a strict-majority side, so a membership service
// running the primary-partition rule can always make progress. The window
// ends with every partition healed.
func Generate(seed int64, nodes []id.Node, window time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var out Schedule

	n := len(nodes)
	maxDown := (n - 1) / 2
	down := make(map[id.Node]bool)
	partitioned := false
	partitionEnd := time.Duration(0)

	at := time.Duration(rng.Int63n(int64(window / 4)))
	for at < window {
		switch pick := rng.Intn(10); {
		case pick < 3 && len(down) < maxDown:
			victim := nodes[rng.Intn(n)]
			if down[victim] {
				break
			}
			down[victim] = true
			out = append(out, Event{At: at, Kind: Crash, Node: victim})
			// Mostly transient crashes; one in four stays down for the
			// rest of the run and must end up evicted.
			if rng.Intn(4) > 0 {
				rest := at + 400*time.Millisecond +
					time.Duration(rng.Int63n(int64(1200*time.Millisecond)))
				if rest < window {
					out = append(out, Event{At: rest, Kind: Restart, Node: victim})
					down[victim] = false
				}
			}
		case pick < 5 && !partitioned && n >= 3:
			// Partition a random strict minority away from the rest.
			k := 1 + rng.Intn((n-1)/2)
			perm := rng.Perm(n)
			minority := make([]id.Node, 0, k)
			majority := make([]id.Node, 0, n-k)
			for i, pi := range perm {
				if i < k {
					minority = append(minority, nodes[pi])
				} else {
					majority = append(majority, nodes[pi])
				}
			}
			hold := 400*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))
			out = append(out, Event{At: at, Kind: PartitionSplit, Groups: [][]id.Node{majority, minority}})
			partitioned = true
			partitionEnd = at + hold
			if partitionEnd < window {
				out = append(out, Event{At: partitionEnd, Kind: Heal})
				partitioned = false
			}
		case pick < 8:
			out = append(out, Event{
				At:   at,
				Kind: LossBurst,
				Loss: 0.1 + 0.3*rng.Float64(),
				Dur:  300*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second))),
			})
		default:
			out = append(out, Event{
				At:   at,
				Kind: DupBurst,
				Dup:  0.05 + 0.25*rng.Float64(),
				Dur:  300*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second))),
			})
		}
		at += 200*time.Millisecond + time.Duration(rng.Int63n(int64(800*time.Millisecond)))
	}
	if partitioned {
		out = append(out, Event{At: window, Kind: Heal})
	}
	return out
}

// TransientOnly filters a schedule down to events a static-membership
// stack tolerates: bursts, and partitions with their heals. Crashes are
// dropped (a static topology cannot evict), and so are restarts.
func (s Schedule) TransientOnly() Schedule {
	var out Schedule
	for _, e := range s {
		switch e.Kind {
		case Crash, Restart:
			continue
		default:
			out = append(out, e)
		}
	}
	return out
}
