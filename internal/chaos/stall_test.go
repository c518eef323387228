package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/member"
	"scalamedia/internal/rmcast"
)

// stallSchedule wedges n3's receive path for dur starting one second into
// the fault window, with a loss burst overlapping the tail so recovery
// and flow control interact.
func stallSchedule(dur time.Duration) chaos.Schedule {
	return chaos.Schedule{
		{At: time.Second, Kind: chaos.Stall, Node: 3, Dur: dur},
		{At: 2500 * time.Millisecond, Kind: chaos.LossBurst, Loss: 0.15, Dur: time.Second},
	}
}

// TestChaosStallMatrix runs the slow-receiver rows of the matrix over the
// core stack: one member stalls mid-window while the rest keep
// multicasting under a small flow window, under both slow policies, four
// seeds each. The full invariant catalogue applies, now including
// bounded-sender-memory (no sender buffers past the window, however long
// the stall), no-false-slow-eviction (the failure detector must not
// mistake slow for crashed; only EvictSlow may remove the laggard, and
// only after its grace) and, for the EvictSlow rows, the throughput
// floor (the eviction must reopen the window). Each run must actually
// exercise the machinery: some sender has to hit backpressure.
func TestChaosStallMatrix(t *testing.T) {
	rows := []struct {
		name   string
		policy member.SlowPolicy
		grace  time.Duration
	}{
		{name: "throttle", policy: member.ThrottleToSlowest},
		{name: "evict", policy: member.EvictSlow, grace: 600 * time.Millisecond},
	}
	for _, row := range rows {
		for _, seed := range []int64{3, 17, 29, 51} {
			row, seed := row, seed
			t.Run(fmt.Sprintf("%s/seed=%d", row.name, seed), func(t *testing.T) {
				t.Parallel()
				tr := chaos.Run(chaos.Options{
					Seed:       seed,
					Nodes:      5,
					Ordering:   rmcast.FIFO,
					Msgs:       80,
					Schedule:   stallSchedule(2500 * time.Millisecond),
					FlowWindow: 4,
					SlowPolicy: row.policy,
					SlowGrace:  row.grace,
				})
				if v := tr.Violations(); len(v) > 0 {
					t.Error(chaos.FailureReport(
						fmt.Sprintf("(stall matrix %s seed=%d)", row.name, seed),
						tr.Schedule, v, tr.Flight))
				}
				var rejected uint64
				peak := 0
				for _, n := range tr.Order {
					rejected += tr.Nodes[n].Recovery.FlowRejected
					if p := tr.Nodes[n].FlowPeak; p > peak {
						peak = p
					}
				}
				if rejected == 0 {
					t.Error("no sender ever hit backpressure: the stall never filled the flow window")
				}
				if peak == 0 {
					t.Error("flow occupancy never sampled above zero")
				}
				stalled := tr.Nodes[3]
				if row.policy == member.ThrottleToSlowest && stalled.Evicted {
					t.Error("throttle policy evicted the stalled member")
				}
				if row.policy == member.EvictSlow && !stalled.Evicted {
					t.Error("evict policy kept a member that stalled far past its grace")
				}
			})
		}
	}
}

// TestChaosStallThenResume pins exactly-once delivery across a stall: the
// wedged member's backlog is delivered in order on resume, recovery fills
// whatever the backlog missed, and nothing is replayed twice. Beyond the
// catalogue's no-duplication check, the stalled node must end with
// exactly one delivery of every workload payload — the drain must neither
// drop nor duplicate against the NACK recovery running concurrently.
func TestChaosStallThenResume(t *testing.T) {
	for _, seed := range []int64{5, 23, 40, 61} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := chaos.Run(chaos.Options{
				Seed:       seed,
				Nodes:      4,
				Ordering:   rmcast.FIFO,
				Msgs:       60,
				Schedule:   chaos.Schedule{{At: 1500 * time.Millisecond, Kind: chaos.Stall, Node: 2, Dur: 2 * time.Second}},
				FlowWindow: 6,
			})
			if v := tr.Violations(); len(v) > 0 {
				t.Error(chaos.FailureReport(
					fmt.Sprintf("(stall-then-resume seed=%d)", seed),
					tr.Schedule, v, tr.Flight))
			}
			counts := make(map[string]int)
			for _, d := range tr.Nodes[2].Deliveries {
				counts[string(d.Payload)]++
			}
			for key := range tr.Sent {
				switch counts[key] {
				case 1:
				case 0:
					t.Errorf("stalled n2 never delivered %s after resume", key)
				default:
					t.Errorf("stalled n2 delivered a payload %d times after backlog drain", counts[key])
				}
			}
		})
	}
}

// TestChaosSlowLink runs the congested-last-hop row: every link touching
// n2 gains 30ms of delay for most of the window. The node keeps draining
// — late — so nothing may be evicted and the whole catalogue must hold.
func TestChaosSlowLink(t *testing.T) {
	sched := chaos.Schedule{
		{At: 800 * time.Millisecond, Kind: chaos.SlowLink, Node: 2,
			Delay: 30 * time.Millisecond, Dur: 3 * time.Second},
	}
	for _, seed := range []int64{9, 27, 44, 58} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := chaos.Run(chaos.Options{
				Seed:       seed,
				Nodes:      5,
				Ordering:   rmcast.FIFO,
				Schedule:   sched,
				FlowWindow: 8,
			})
			if v := tr.Violations(); len(v) > 0 {
				t.Error(chaos.FailureReport(
					fmt.Sprintf("(slow-link seed=%d)", seed), tr.Schedule, v, tr.Flight))
			}
			for _, n := range tr.Order {
				if tr.Nodes[n].Evicted {
					t.Errorf("n%d evicted by a delay overlay that never stopped traffic", n)
				}
			}
		})
	}
}

// TestChaosSessionStall runs the stall row at the session layer: one
// participant wedges mid-window while others announce and withdraw
// streams, and after the resume every live participant must converge on
// the same directory — the backlog drain must replay announcements
// exactly once into the directory state machine.
func TestChaosSessionStall(t *testing.T) {
	sched := chaos.Schedule{
		{At: 800 * time.Millisecond, Kind: chaos.Stall, Node: 3, Dur: 1200 * time.Millisecond},
	}
	for _, seed := range []int64{2, 13, 31, 47} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := chaos.RunSession(chaos.SessionOptions{Seed: seed, Nodes: 4, Schedule: sched})
			if len(tr.Violations()) > 0 {
				t.Errorf("session stall seed=%d violations:\n%v", seed, tr.Violations())
			}
			if tr.Nodes[3].Evicted {
				t.Error("session layer evicted the stalled participant")
			}
		})
	}
}

// TestHierRunnersHonourSlowLink checks that the hierarchical runners
// apply a SlowLink event: delaying every link of one node must change the
// run against the same seed without it, and the catalogue must still
// hold.
func TestHierRunnersHonourSlowLink(t *testing.T) {
	slow := chaos.Schedule{
		{At: 500 * time.Millisecond, Kind: chaos.SlowLink, Node: 1, Delay: 30 * time.Millisecond, Dur: 2 * time.Second},
	}
	runs := map[string]func(chaos.Schedule) (*flightrec.Recorder, []string){
		"RunHier": func(s chaos.Schedule) (*flightrec.Recorder, []string) {
			tr := chaos.RunHier(chaos.HierOptions{Seed: 5, Schedule: s})
			return tr.Flight, tr.Violations()
		},
		"RunAutoHier": func(s chaos.Schedule) (*flightrec.Recorder, []string) {
			tr := chaos.RunAutoHier(chaos.AutoHierOptions{Seed: 5, Schedule: s})
			return tr.Flight, tr.Violations()
		},
	}
	for name, run := range runs {
		plain, _ := run(chaos.Schedule{})
		slowed, v := run(slow)
		if len(v) > 0 {
			t.Errorf("%s with a slow link: %v", name, v)
		}
		if reflect.DeepEqual(plain.Dump(), slowed.Dump()) {
			t.Errorf("%s ignored the SlowLink event: identical timelines", name)
		}
	}
}
