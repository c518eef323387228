package chaos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"scalamedia/internal/rmcast"
)

// TestChaosViewChangeOneFlushRound pins how long a 16-member total-order
// group takes to replace its crashed coordinator, which is also its
// sequencer, while every member keeps multicasting. Detection takes
// SuspectAfter; the 60 ms budget after it covers the proposal, one flush
// round with its repairs, and the commit. A member that acks the proposal
// one message short and waits for its periodic re-ack, one JoinRetry
// later, misses it. In the median seed every survivor must install the
// first view without the crashed node within that budget. In every seed
// it must do so within one JoinRetry more: over 2 % loss a view change
// sometimes loses a ViewCommit, a FlushOK or the last copy of a flush
// repair, and the periodic round that repairs those is the insurance the
// design keeps.
func TestChaosViewChangeOneFlushRound(t *testing.T) {
	const crashAt = 750 * time.Millisecond
	cfg := StackConfig(7, 1)
	budget := cfg.SuspectAfter + 60*time.Millisecond
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	slowest := make([]time.Duration, len(seeds))
	t.Run("seeds", func(t *testing.T) {
		for i, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				tr := Run(Options{
					Seed: seed, Nodes: 16, Ordering: rmcast.Total, Msgs: 600, Window: 1500 * time.Millisecond,
					Schedule: Schedule{{At: crashAt, Kind: Crash, Node: 1}},
				})
				if v := tr.Violations(); len(v) > 0 {
					t.Fatal(FailureReport(fmt.Sprintf("go test ./internal/chaos -run TestChaosViewChangeOneFlushRound/seeds/seed=%d", seed), tr.Schedule, v, tr.Flight))
				}
				crash := joinWindow + crashAt
				for _, n := range tr.Order[1:] {
					k := slices.IndexFunc(tr.Nodes[n].Views, func(v ViewRec) bool { return v.At >= crash && !v.View.Contains(1) })
					if k < 0 {
						t.Fatalf("survivor %v never installed a view without the crashed coordinator", n)
					}
					slowest[i] = max(slowest[i], tr.Nodes[n].Views[k].At-crash)
				}
				if slowest[i] > budget+cfg.JoinRetry {
					t.Errorf("a survivor installed the view without the crashed coordinator %v after the crash, budget %v plus one JoinRetry", slowest[i], budget)
				}
			})
		}
	})
	sorted := slices.Clone(slowest)
	slices.Sort(sorted)
	if med := sorted[len(sorted)/2]; med > budget {
		t.Errorf("view change in one flush round: in the median seed the last survivor installed the view without the crashed coordinator %v after the crash, budget %v (per seed: %v)", med, budget, slowest)
	}
}
