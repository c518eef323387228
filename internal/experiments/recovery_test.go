package experiments

import (
	"testing"
)

// t7FlatBaseline holds, per group size, what the per-receiver NACK
// scheduler measured on runRecovery's flat workload at seed 1800+n before
// it was deleted from the engine (commit 386e799): lost data datagrams
// and request events, every cell at full delivery. The seeded simulator
// makes the figures exact, so the tests compare against them instead of
// a live run.
var t7FlatBaseline = map[int]struct{ lost, requests float64 }{
	16:   {32, 37},
	64:   {167, 177},
	256:  {304, 357},
	1024: {2429, 2629},
}

func TestT7Shape(t *testing.T) {
	tab := T7RecoveryOverhead(quick)
	if len(tab.Rows) != 4 { // 2 sizes × {hier, suppressed}
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if rate := cell(t, row[7]); rate < 0.999 {
			t.Errorf("%s n=%s delivery rate %.3f < 0.999", row[1], row[0], rate)
		}
		if row[3] == "-" {
			t.Errorf("%s n=%s saw no losses", row[1], row[0])
		}
	}
	// At the largest quick size the loss domains hold several receivers,
	// so suppression must already beat per-receiver NACKs.
	last := tab.Rows[len(tab.Rows)-1]
	flat, ok := t7FlatBaseline[int(cell(t, last[0]))]
	if !ok {
		t.Fatalf("no recorded flat baseline for n=%s", last[0])
	}
	if flatReq, supReq := flat.requests/flat.lost, cell(t, last[3]); supReq >= flatReq {
		t.Errorf("n=%s: suppressed req/loss %.3f not below the recorded flat %.3f",
			last[0], supReq, flatReq)
	}
}

// TestT7Smoke256 is the bounded T7 slice scripts/check.sh runs: one seed
// at n=256, asserting full delivery and a real (≥50%) request reduction
// against the recorded per-receiver baseline without paying for the
// 1024-node sweep.
func TestT7Smoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("T7 smoke runs via scripts/check.sh, not in -short")
	}
	const n = 256
	seed := int64(1800 + n)
	flat := t7FlatBaseline[n]
	sup := runRecovery(n, 0, seed)
	t.Logf("flat (recorded): lost=%.0f requests=%.0f; sup: lost=%d requests=%d wall=%v",
		flat.lost, flat.requests, sup.LostData, sup.Requests, sup.Wall)
	if sup.Delivered != sup.Expected {
		t.Fatalf("incomplete delivery: %d/%d", sup.Delivered, sup.Expected)
	}
	if sup.LostData == 0 {
		t.Fatal("no losses: the smoke measured nothing")
	}
	flatPer := flat.requests / flat.lost
	supPer := float64(sup.Requests) / float64(sup.LostData)
	if supPer > 0.5*flatPer {
		t.Errorf("suppressed req/loss %.4f not below half of flat %.4f", supPer, flatPer)
	}
}

// TestT7SuppressionAtScale checks the headline claim at n=1024: with
// 64-receiver loss domains, randomized suppression cuts recovery requests
// per lost datagram to no more than 10%% of the recorded per-receiver
// NACK baseline, while still delivering everything.
func TestT7SuppressionAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node sweep skipped in -short")
	}
	const n = 1024
	seed := int64(1800 + n)
	flat := t7FlatBaseline[n]
	sup := runRecovery(n, 0, seed)
	t.Logf("flat (recorded): lost=%.0f requests=%.0f", flat.lost, flat.requests)
	t.Logf("sup:  lost=%d requests=%d repairs=%d suppressed=%d local=%d delivered=%d/%d wall=%v",
		sup.LostData, sup.Requests, sup.Repairs, sup.Suppressed, sup.LocalRepairs,
		sup.Delivered, sup.Expected, sup.Wall)
	if sup.LostData == 0 {
		t.Fatal("no losses: the sweep measured nothing")
	}
	if sup.Delivered != sup.Expected {
		t.Errorf("suppressed delivered %d of %d", sup.Delivered, sup.Expected)
	}
	flatPer := flat.requests / flat.lost
	supPer := float64(sup.Requests) / float64(sup.LostData)
	if supPer > 0.10*flatPer {
		t.Errorf("suppressed req/loss %.4f exceeds 10%% of flat %.4f", supPer, flatPer)
	}
	if sup.LocalRepairs == 0 {
		t.Error("no local repairs: peers never answered for the origin")
	}
	if sup.Suppressed == 0 {
		t.Error("no suppressed requests at n=1024")
	}
}
