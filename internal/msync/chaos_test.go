package msync_test

import (
	"flag"
	"fmt"
	"testing"

	"scalamedia/internal/chaos"
)

// -msync.chaos.seed replays one failing synchronization chaos run.
var msyncChaosSeed = flag.Int64("msync.chaos.seed", -1, "replay a single msync chaos seed")

// TestMsyncChaos runs the lip-sync controller against a drifting video
// stream under seeded loss and jitter bursts and checks the bounded-skew
// invariant: after a convergence window the measured audio/video skew
// stays within the controller's bound, and the controller actually
// issued corrections (the drift makes a do-nothing controller fail).
func TestMsyncChaos(t *testing.T) {
	if *msyncChaosSeed >= 0 {
		runMsyncChaos(t, *msyncChaosSeed)
		return
	}
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	for i := int64(0); i < n; i++ {
		seed := 5000 + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runMsyncChaos(t, seed)
		})
	}
}

func runMsyncChaos(t *testing.T, seed int64) {
	tr := chaos.RunMsync(chaos.MsyncOptions{Seed: seed})
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			fmt.Sprintf("go test ./internal/msync -run TestMsyncChaos -msync.chaos.seed=%d", seed),
			nil, v, tr.Flight))
	}
}
