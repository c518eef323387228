package netsim_test

import (
	"testing"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
)

// TestNetsimSweep1024 pins the simulator's scale envelope: 1024 full core
// stacks (membership + reliable multicast) in one event queue over a
// lossy LAN, organized as 32 independent 32-member groups that each form
// through real join traffic. Within the 12s virtual-time budget every
// group must converge on the full 32-member view and deliver the whole
// workload exactly once at every member. This is the regression guard for
// the sharded calendar queue and the allocation-trimmed node bookkeeping;
// if the refactor regresses, the run blows the go test deadline long
// before the assertions fire.
func TestNetsimSweep1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node sweep skipped in -short")
	}
	const (
		groups    = 32
		perGroup  = 32
		total     = groups * perGroup
		senders   = 2 // per group
		perSender = 5
		budget    = 12 * time.Second // virtual
	)
	link := netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.01}
	sim := netsim.New(netsim.Config{
		Seed:    1024,
		Profile: func(_, _ id.Node) netsim.Link { return link },
	})

	stacks := make(map[id.Node]*core.Stack, total)
	delivered := make(map[id.Node]int, total)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			n := id.Node(g*perGroup + i + 1)
			contact := id.Node(g*perGroup + 1)
			if n == contact {
				contact = id.None
			}
			gid := id.Group(g + 1)
			sim.AddNode(n, func(env proto.Env) proto.Handler {
				st := core.NewStack(env, core.Config{
					Group:          gid,
					Contact:        contact,
					Ordering:       rmcast.FIFO,
					HeartbeatEvery: 200 * time.Millisecond,
					SuspectAfter:   time.Second,
					JoinRetry:      250 * time.Millisecond,
				}, core.Hooks{
					OnDeliver: func(rmcast.Delivery) { delivered[n]++ },
				})
				stacks[n] = st
				return st
			})
		}
	}

	// Workload starts once the groups have had time to form; sends from
	// stacks still joining are skipped and accounted for.
	sent := make([]int, groups)
	for g := 0; g < groups; g++ {
		g := g
		for s := 0; s < senders; s++ {
			sender := id.Node(g*perGroup + s + 1)
			for m := 0; m < perSender; m++ {
				at := 5*time.Second + time.Duration(m)*100*time.Millisecond +
					time.Duration(s)*37*time.Millisecond
				sim.At(at, func() {
					st := stacks[sender]
					if st.Joining() || st.Evicted() {
						return
					}
					if err := st.Multicast([]byte{byte(g), byte(sent[g])}); err == nil {
						sent[g]++
					}
				})
			}
		}
	}

	start := time.Now()
	events := sim.Run(budget)
	wall := time.Since(start)
	stats := sim.Stats()
	t.Logf("1024-node sweep: %d events in %v wall (%d datagrams sent, %d dropped)",
		events, wall, stats.TotalSent(), stats.Dropped)

	for g := 0; g < groups; g++ {
		if sent[g] == 0 {
			t.Fatalf("group %d sent nothing: joins never completed", g+1)
		}
		var want member.View
		for i := 0; i < perGroup; i++ {
			n := id.Node(g*perGroup + i + 1)
			st := stacks[n]
			v := st.View()
			if len(v.Members) != perGroup {
				t.Fatalf("group %d: n%d ended in a %d-member view, want %d",
					g+1, n, len(v.Members), perGroup)
			}
			if want.ID == 0 {
				want = v
			} else if v.ID != want.ID {
				t.Fatalf("group %d: n%d ended in view %d, others in %d — no convergence",
					g+1, n, v.ID, want.ID)
			}
			if delivered[n] != sent[g] {
				t.Fatalf("group %d: n%d delivered %d of %d messages",
					g+1, n, delivered[n], sent[g])
			}
		}
	}
}
