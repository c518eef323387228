package chaos_test

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/id"
	"scalamedia/internal/rmcast"
)

// Sweep controls: -chaos.seeds widens the sweep, -chaos.seed replays one
// failing run. Every run is fully determined by its seed — the ordering,
// node count and fault schedule all derive from it — so the repro line a
// failure prints needs nothing else.
var (
	sweepSeeds = flag.Int("chaos.seeds", 0, "number of seeds to sweep (0 = 8 in -short, 200 otherwise)")
	oneSeed    = flag.Int64("chaos.seed", -1, "replay a single seed instead of sweeping")
)

// sweepOpts derives a run configuration from a seed: the ordering cycles
// through the three strong disciplines and the group size through 3..5,
// so a sweep covers the matrix without extra flags.
func sweepOpts(seed int64) chaos.Options {
	orderings := []rmcast.Ordering{rmcast.FIFO, rmcast.Causal, rmcast.Total}
	return chaos.Options{
		Seed:     seed,
		Ordering: orderings[seed%3],
		Nodes:    3 + int(seed/3)%3,
	}
}

// TestChaosSweep runs the seeded fault-schedule matrix over the full
// stack: membership, reliable multicast and the ordering disciplines,
// checked against the whole invariant catalogue (agreement, ordering
// safety, no-duplication, no-creation, validity, view convergence,
// stability GC). In -short mode it covers 8 distinct seeded schedules;
// a full run covers 200 (a couple of seconds), wide enough that a timer
// change reaching a safety bug fails tier-1, and -chaos.seeds widens it
// further.
func TestChaosSweep(t *testing.T) {
	if *oneSeed >= 0 {
		runSweepSeed(t, *oneSeed)
		return
	}
	n := *sweepSeeds
	if n <= 0 {
		n = 200
		if testing.Short() {
			n = 8
		}
	}
	for seed := int64(0); seed < int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSweepSeed(t, seed)
		})
	}
}

func runSweepSeed(t *testing.T, seed int64) {
	opts := sweepOpts(seed)
	tr := chaos.Run(opts)
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			fmt.Sprintf("go test ./internal/chaos -run TestChaosSweep -chaos.seed=%d", seed),
			tr.Schedule, v, tr.Flight))
	}
}

// suppressionSchedule builds the lossy and partition rows of the
// suppression matrix: a heavy correlated-loss burst, or a majority-side
// partition that heals, each stretched across most of the fault window.
func suppressionSchedule(kind string, nodes int) chaos.Schedule {
	switch kind {
	case "lossy":
		return chaos.Schedule{
			{At: 500 * time.Millisecond, Kind: chaos.LossBurst, Loss: 0.25, Dur: 3 * time.Second},
			{At: 4 * time.Second, Kind: chaos.DupBurst, Dup: 0.2, Dur: time.Second},
		}
	case "partition":
		ids := make([]id.Node, nodes)
		for i := range ids {
			ids[i] = id.Node(i + 1)
		}
		minority := ids[:(nodes-1)/2]
		return chaos.Schedule{
			{At: time.Second, Kind: chaos.PartitionSplit, Groups: [][]id.Node{minority}},
			// The burst overlaps the partition, so the majority side is
			// recovering from correlated loss while the split is in force.
			{At: 1500 * time.Millisecond, Kind: chaos.LossBurst, Loss: 0.25, Dur: 2 * time.Second},
			{At: 3500 * time.Millisecond, Kind: chaos.Heal},
		}
	}
	panic("unknown suppression schedule " + kind)
}

// TestChaosSuppressionMatrix pins the scalable-recovery rows of the
// matrix: suppression-enabled runs under a heavy correlated-loss burst
// and under a healing partition, two seeds each. The full invariant
// catalogue applies — including the no-repair-storm bound — and the runs
// must actually exercise the suppression machinery, not just survive it.
func TestChaosSuppressionMatrix(t *testing.T) {
	for _, kind := range []string{"lossy", "partition"} {
		for _, seed := range []int64{41, 42} {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				const nodes = 5
				tr := chaos.Run(chaos.Options{
					Seed:        seed,
					Nodes:       nodes,
					Ordering:    rmcast.FIFO,
					LossDomains: 2, // every loss gaps half the group
					Schedule:    suppressionSchedule(kind, nodes),
				})
				if v := tr.Violations(); len(v) > 0 {
					t.Error(chaos.FailureReport(
						fmt.Sprintf("(suppression matrix %s seed=%d)", kind, seed),
						tr.Schedule, v, tr.Flight))
				}
				var suppressed, served uint64
				for _, n := range tr.Order {
					suppressed += tr.Nodes[n].Recovery.NacksSuppressed
					served += tr.Nodes[n].Recovery.NacksServed
				}
				if kind == "lossy" && suppressed == 0 {
					t.Error("correlated loss burst triggered no request suppression")
				}
				if served == 0 {
					t.Error("no repairs served: the schedule never exercised recovery")
				}
			})
		}
	}
}

// TestChaosSequencerCrash pins the total-order pipeline under its worst
// fault: a handwritten schedule crashes node 1 — the view coordinator and
// so the sequencer — while range decisions are in flight, with a loss
// burst overlapping the resulting view change, then restarts it. Ordering
// safety (mutual-prefix total order), sender FIFO across the workload's
// stream labels, no-duplication and no-creation must hold across the
// crash, the eviction view and the rejoin, on four seeds. The run must
// also genuinely move the sequencer role: a second member assigns slots
// after the crash, and the decisions travel as pipelined ranges. The
// windowed cells repeat it with the sequencer announcing at activation
// ends, so the crash falls between an early announcement and the next
// window close instead of between two ticks. The echo-crash cells load the
// group from every member over a LAN whose round trip is well inside the
// ordering window, so the sequencer's batches leave on its members'
// echoes, and crash it at the end of the activation that sent the first
// such batch.
func TestChaosSequencerCrash(t *testing.T) {
	sched := chaos.Schedule{
		{At: 1500 * time.Millisecond, Kind: chaos.Crash, Node: 1},
		{At: 2 * time.Second, Kind: chaos.LossBurst, Loss: 0.2, Dur: time.Second},
		{At: 3500 * time.Millisecond, Kind: chaos.Restart, Node: 1},
	}
	for i := 0; i < 12; i++ {
		opts := chaos.Options{
			Seed:     []int64{7, 19, 33, 57}[i%4],
			Nodes:    5,
			Ordering: rmcast.Total,
			Msgs:     80,
			Schedule: sched,
			Windowed: i >= 4,
		}
		name := fmt.Sprintf("seed=%d/windowed=%v", opts.Seed, opts.Windowed)
		if i >= 8 {
			opts.Schedule = sched[1:] // node 1 crashes on its first echoed flush instead
			opts.EchoLoad, opts.CrashOnEcho = true, 1
			name = fmt.Sprintf("echo-crash/seed=%d", opts.Seed)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := chaos.Run(opts)
			if v := tr.Violations(); len(v) > 0 {
				t.Error(chaos.FailureReport(
					fmt.Sprintf("(sequencer-crash schedule, cell %s)", name),
					tr.Schedule, v, tr.Flight))
			}
			if opts.CrashOnEcho != 0 && !tr.Nodes[1].CrashedEver {
				t.Error("no order flush was opened by echoes, so the sequencer never crashed")
			}
			sequencers := 0
			var ranges uint64
			for _, n := range tr.Order {
				if tr.Nodes[n].Recovery.OrdersSent > 0 {
					sequencers++
				}
				ranges += tr.Nodes[n].Recovery.OrderRanges
			}
			if sequencers < 2 {
				t.Errorf("only %d members sequenced; the role never moved off the crashed node", sequencers)
			}
			if ranges == 0 {
				t.Error("no range decisions sent: pipeline not exercised")
			}
		})
	}
}

// TestChaosUnordered exercises the unordered discipline separately: the
// agreement invariants don't apply (early delivery past a gap is the
// point), but no-creation, no-duplication, validity, view convergence
// and GC must still hold.
func TestChaosUnordered(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := chaos.Run(chaos.Options{Seed: seed, Ordering: rmcast.Unordered})
			if v := tr.Violations(); len(v) > 0 {
				t.Error(chaos.FailureReport(
					fmt.Sprintf("go test ./internal/chaos -run TestChaosUnordered/seed=%d", seed),
					tr.Schedule, v, tr.Flight))
			}
		})
	}
}

// TestChaosJoinThroughAsymmetry runs a handwritten schedule that blocks
// the coordinator's replies to one joiner during group formation: n3's
// JoinReqs reach n1 but every proposal sent back is dropped until the
// block lifts. The admission guards must keep the rest of the group
// forming (bounded proposal rounds instead of a wedged flush), n3 must
// be admitted once the direction heals, and the full invariant
// catalogue must hold.
func TestChaosJoinThroughAsymmetry(t *testing.T) {
	// Schedule offsets are relative to the fault window, which starts
	// after the 1.5s join window; -1500ms lands on simulation start, so
	// the block covers group formation.
	sched := chaos.Schedule{
		{At: -1500 * time.Millisecond, Kind: chaos.AsymmetricPartition,
			Node: 1, Peer: 3, Dur: 600 * time.Millisecond},
	}
	tr := chaos.Run(chaos.Options{Seed: 5, Nodes: 4, Schedule: sched})
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			"(handwritten asymmetric-join schedule)", tr.Schedule, v, tr.Flight))
	}
	n3 := tr.Nodes[3]
	if len(n3.Views) == 0 {
		t.Fatal("n3 never installed a view")
	}
	if first := n3.Views[0].At; first < 600*time.Millisecond {
		t.Fatalf("n3 installed its first view at %v, before the asymmetric block lifted", first)
	}
}

// TestScheduleDeterminism pins the reproducibility contract: the same
// seed yields byte-identical schedules and traces.
func TestScheduleDeterminism(t *testing.T) {
	a := chaos.Run(chaos.Options{Seed: 11})
	b := chaos.Run(chaos.Options{Seed: 11})
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("schedules differ:\n%s\n%s", a.Schedule, b.Schedule)
	}
	if len(a.Sent) != len(b.Sent) {
		t.Fatalf("workloads differ: %d vs %d sends", len(a.Sent), len(b.Sent))
	}
	for _, n := range a.Order {
		da, db := a.Nodes[n].Deliveries, b.Nodes[n].Deliveries
		if len(da) != len(db) {
			t.Fatalf("n%d delivery counts differ: %d vs %d", n, len(da), len(db))
		}
		for i := range da {
			if string(da[i].Payload) != string(db[i].Payload) || da[i].At != db[i].At {
				t.Fatalf("n%d delivery %d differs", n, i)
			}
		}
	}
}

// TestScheduleMajorityPreserving pins the generator's safety envelope:
// no schedule ever crashes a majority or partitions without a
// strict-majority side, and every partition heals.
func TestScheduleMajorityPreserving(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		n := 3 + int(seed)%5
		nodes := make([]id.Node, n)
		for i := range nodes {
			nodes[i] = id.Node(i + 1)
		}
		sched := chaos.Generate(seed, nodes, 6*time.Second)
		down := 0
		partitioned := false
		for _, ev := range sched {
			switch ev.Kind {
			case chaos.Crash:
				down++
				if down > (n-1)/2 {
					t.Fatalf("seed %d n=%d: schedule crashes a majority\n%s", seed, n, sched)
				}
			case chaos.Restart:
				down--
			case chaos.PartitionSplit:
				partitioned = true
				best := 0
				for _, g := range ev.Groups {
					if len(g) > best {
						best = len(g)
					}
				}
				if best*2 <= n {
					t.Fatalf("seed %d n=%d: partition has no strict majority\n%s", seed, n, sched)
				}
			case chaos.Heal:
				partitioned = false
			}
		}
		if partitioned {
			t.Fatalf("seed %d n=%d: schedule ends partitioned\n%s", seed, n, sched)
		}
	}
}
