package rmcast_test

import (
	"flag"
	"fmt"
	"testing"

	"scalamedia/internal/chaos"
	"scalamedia/internal/rmcast"
)

// -rmcast.chaos.seed replays one failing run; the ordering cycles with
// the seed exactly as in the matrix, so the seed alone pins the run.
var rmcastChaosSeed = flag.Int64("rmcast.chaos.seed", -1, "replay a single rmcast chaos seed")

func rmcastChaosOpts(seed int64) chaos.Options {
	orderings := []rmcast.Ordering{rmcast.FIFO, rmcast.Causal, rmcast.Total, rmcast.Unordered}
	return chaos.Options{
		Seed:     seed,
		Ordering: orderings[seed%4],
		Nodes:    3 + int(seed/4)%3,
	}
}

// TestRmcastChaos runs the ordering-discipline matrix under seeded fault
// schedules and checks the multicast safety invariants: no creation, no
// duplication, per-sender FIFO, causal obligation order, total-order
// prefix agreement, virtual-synchrony agreement across shared view
// transitions, validity and stability GC. Each discipline is exercised
// with loss, duplication bursts, partitions and crash/restart faults.
func TestRmcastChaos(t *testing.T) {
	if *rmcastChaosSeed >= 0 {
		runRmcastChaos(t, *rmcastChaosSeed)
		return
	}
	n := int64(16)
	if testing.Short() {
		n = 4 // one seed per ordering
	}
	for seed := int64(0); seed < n; seed++ {
		seed := 2000 + seed
		opts := rmcastChaosOpts(seed)
		t.Run(fmt.Sprintf("%s/seed=%d", opts.Ordering, seed), func(t *testing.T) {
			t.Parallel()
			runRmcastChaos(t, seed)
		})
	}
}

func runRmcastChaos(t *testing.T, seed int64) {
	tr := chaos.Run(rmcastChaosOpts(seed))
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			fmt.Sprintf("go test ./internal/rmcast -run TestRmcastChaos -rmcast.chaos.seed=%d", seed),
			tr.Schedule, v, tr.Flight))
	}
}

// TestRmcastChaosWindowed re-runs the matrix's total-order cells with the
// simulator making the proto.Windowed calls, so the same fault schedules
// hit a sequencer that announces at activation ends and on its ordering
// window, as it does on a live runner.
func TestRmcastChaosWindowed(t *testing.T) {
	for _, seed := range []int64{2002, 2006, 2010, 2014} {
		opts := rmcastChaosOpts(seed)
		opts.Windowed = true
		t.Run(fmt.Sprintf("%s/seed=%d", opts.Ordering, seed), func(t *testing.T) {
			t.Parallel()
			tr := chaos.Run(opts)
			if v := tr.Violations(); len(v) > 0 {
				t.Error(chaos.FailureReport(
					fmt.Sprintf("(windowed rmcast chaos, seed=%d)", seed),
					tr.Schedule, v, tr.Flight))
			}
		})
	}
}
