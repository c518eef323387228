package bulk

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
)

// -bulk.chaos.seed replays one failing bulk chaos run.
var bulkChaosSeed = flag.Int64("bulk.chaos.seed", -1, "replay a single bulk chaos seed")

// TestBulkChaos drives a scattered transfer through a seeded fault
// matrix — correlated symbol loss plus one relay crashed mid-transfer,
// with its striped symbol share lost — and checks every surviving node
// still reconstructs the object exactly. The crash lands while the
// scatter is in flight, so the repair path (not the relay fan) must
// carry the crashed relay's share. Every seed runs twice: with the object
// inside the scatter window, and with the window shrunk to an eighth of
// the object, so that the crash lands while the origin is waiting for
// reports — the crashed relay's among them.
func TestBulkChaos(t *testing.T) {
	if *bulkChaosSeed >= 0 {
		runBulkChaos(t, *bulkChaosSeed, false)
		runBulkChaos(t, *bulkChaosSeed, true)
		return
	}
	n := int64(8)
	if testing.Short() {
		n = 2
	}
	for i := int64(0); i < n; i++ {
		seed := 7000 + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, windowed := range []bool{false, true} {
				t.Run(fmt.Sprintf("windowed=%v", windowed), func(t *testing.T) {
					t.Parallel()
					runBulkChaos(t, seed, windowed)
				})
			}
		})
	}
}

func runBulkChaos(t *testing.T, seed int64, windowed bool) {
	nodes := 8 + int(seed)%9 // 8..16
	loss := 0.02 + float64(seed%4)*0.02
	crashed := id.Node(2 + seed%int64(nodes-1)) // never the origin (node 1)
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, nodes, seed,
		netsim.LANProfile(time.Millisecond, 500*time.Microsecond, loss), cfg)
	// Correlated loss domains: one drawn loss strands a whole subtree of
	// receivers, the regime the repair rotation has to dig out of.
	f.sim.SetLossDomains(func(n id.Node) int { return int(n) % 4 })
	data := testObject(25_000, seed)
	if windowed {
		f.shrinkWindow(16 * cfg.SymbolSize) // of 130 symbols
	}
	f.publish(t, 1, 77, data, true)
	// Crash one relay mid-transfer: the scatter began at t=10ms and the
	// first symbols are still fanning out at 12ms.
	f.sim.At(12*time.Millisecond, func() { f.sim.Crash(crashed) })
	f.sim.Run(20 * time.Second)
	defer func() {
		if t.Failed() {
			t.Logf("replay: go test ./internal/bulk -run TestBulkChaos -bulk.chaos.seed=%d", seed)
		}
	}()
	f.assertAllComplete(t, 77, data, map[id.Node]bool{crashed: true})
	origin := f.engines[1]
	if len(origin.scatters) != 0 {
		t.Fatalf("%d scatters still in progress at the origin", len(origin.scatters))
	}
	if windowed && origin.m.scatterWaits.Value() == 0 {
		t.Fatal("the shrunk window never bound")
	}
}
