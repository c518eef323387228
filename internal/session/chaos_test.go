package session_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/flightrec"
)

// -session.chaos.seed replays one failing session chaos run.
var sessionChaosSeed = flag.Int64("session.chaos.seed", -1, "replay a single session chaos seed")

// TestSessionChaos drives the session layer — membership plus the
// replicated stream directory — through seeded fault schedules and
// checks directory agreement (all live members hold identical
// directories), ownership (every directory entry's owner is a final-view
// member), withdrawal (withdrawn streams are gone everywhere), validity
// (stable members' announcements are present) and eviction-notification
// consistency, on top of view convergence.
func TestSessionChaos(t *testing.T) {
	if *sessionChaosSeed >= 0 {
		runSessionChaos(t, *sessionChaosSeed)
		return
	}
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	for i := int64(0); i < n; i++ {
		seed := 4000 + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSessionChaos(t, seed)
		})
	}
}

// TestSessionJoinThroughAsymmetry blocks the coordinator→joiner
// direction for long enough that the admission guard quarantines the
// joiner: n4's JoinReqs keep arriving but nothing sent back ever lands,
// so after the bounded proposal rounds n4 is parked instead of wedging
// the flush. The rest of the session must form and make progress
// immediately, and n4 must be admitted after the quarantine TTL with a
// state-transferred directory identical to everyone else's.
func TestSessionJoinThroughAsymmetry(t *testing.T) {
	// -1500ms offsets the fault back to simulation start so the block
	// covers the whole join window and beyond.
	sched := chaos.Schedule{
		{At: -1500 * time.Millisecond, Kind: chaos.AsymmetricPartition,
			Node: 1, Peer: 4, Dur: 2500 * time.Millisecond},
	}
	tr := chaos.RunSession(chaos.SessionOptions{Seed: 9, Nodes: 4, Schedule: sched})
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			"(handwritten asymmetric-join schedule)", tr.Schedule, v, tr.Flight))
	}
	quarantined := false
	for _, ev := range tr.Flight.Dump() {
		if ev.Code == flightrec.EvQuarantine && ev.A == 4 {
			quarantined = true
			break
		}
	}
	if !quarantined {
		t.Fatal("flight recorder shows no quarantine event for n4")
	}
	if sn := tr.Nodes[4]; !sn.FinalView.Contains(4) {
		t.Fatalf("n4 was never admitted after quarantine: final view %v", sn.FinalView.Members)
	}
}

func runSessionChaos(t *testing.T, seed int64) {
	tr := chaos.RunSession(chaos.SessionOptions{Seed: seed, Nodes: 3 + int(seed)%3})
	if v := tr.Violations(); len(v) > 0 {
		t.Error(chaos.FailureReport(
			fmt.Sprintf("go test ./internal/session -run TestSessionChaos -session.chaos.seed=%d", seed),
			tr.Schedule, v, tr.Flight))
	}
}

// TestSessionEventsRepeat: a seeded session scenario gives every
// participant the same event list, in the same order, on every run. Seeds
// 7, 8 and 9 crash owners of several streams.
func TestSessionEventsRepeat(t *testing.T) {
	events := func(seed int64) string {
		tr := chaos.RunSession(chaos.SessionOptions{Seed: seed, Nodes: 3 + int(seed)%3})
		var b strings.Builder
		for _, n := range tr.Order {
			fmt.Fprintf(&b, "%v: %+v\n", n, tr.Nodes[n].Events)
		}
		return b.String()
	}
	for _, seed := range []int64{7, 8, 9} {
		if a, b := events(seed), events(seed); a != b {
			t.Errorf("seed %d: two runs gave different event lists:\n%s\n%s", seed, a, b)
		}
	}
}
