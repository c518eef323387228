package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// viewChangeResult summarizes one crash-recovery run.
type viewChangeResult struct {
	converged   bool
	meanLatency time.Duration
	maxLatency  time.Duration
	finalViews  int
}

// runViewChange boots an n-member group, crashes one member and measures
// how long each survivor takes to install a view excluding it.
func runViewChange(n int, crashCoordinator bool, seed int64) viewChangeResult {
	sim := chaos.NewNet(chaos.NetConfig{Seed: seed, Link: netsim.Link{Delay: time.Millisecond}})

	type obs struct {
		eng        *member.Engine
		evictedAt  time.Time
		sawEvicted bool
	}
	crashed := id.Node(n) // highest ID: never the coordinator
	if crashCoordinator {
		crashed = 1
	}
	nodes := make(map[id.Node]*obs, n)
	for i := 1; i <= n; i++ {
		m := id.Node(i)
		contact := id.Node(1)
		if m == 1 {
			contact = id.None
		}
		ob := &obs{}
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			ob.eng = member.New(env, member.Config{
				Group:          1,
				Contact:        contact,
				HeartbeatEvery: 40 * time.Millisecond,
				SuspectAfter:   200 * time.Millisecond,
				FlushTimeout:   300 * time.Millisecond,
				OnView: func(v member.View) {
					if !ob.sawEvicted && v.ID > 1 && !v.Contains(crashed) && v.Size() == n-1 {
						ob.sawEvicted = true
						ob.evictedAt = env.Now()
					}
				},
			})
			return ob.eng
		})
		nodes[m] = ob
	}

	// Generous warmup for all joins to complete, scaled with n.
	warmup := 3*time.Second + time.Duration(n)*100*time.Millisecond
	crashAt := warmup + 500*time.Millisecond
	sim.At(crashAt, func() { sim.Crash(crashed) })
	sim.Run(crashAt + 10*time.Second)

	res := viewChangeResult{converged: true}
	crashTime := time.Unix(0, 0).UTC().Add(crashAt)
	var total time.Duration
	survivors := 0
	for m, ob := range nodes {
		if m == crashed {
			continue
		}
		survivors++
		v := ob.eng.View()
		if !ob.sawEvicted || v.Size() != n-1 {
			res.converged = false
			continue
		}
		lat := ob.evictedAt.Sub(crashTime)
		total += lat
		if lat > res.maxLatency {
			res.maxLatency = lat
		}
		res.finalViews++
	}
	if res.finalViews > 0 {
		res.meanLatency = total / time.Duration(res.finalViews)
	}
	res.converged = res.converged && res.finalViews == survivors
	return res
}

// T4ViewChangeLatency reproduces table T4: failure-recovery (view change)
// latency versus group size, for member and coordinator crashes.
func T4ViewChangeLatency(o Options) Table {
	sizes := []int{4, 8, 16, 32}
	if o.Quick {
		sizes = []int{4, 8}
	}
	t := Table{
		ID:    "T4",
		Title: "View-change latency after a crash (ms)",
		Columns: []string{"n", "member crash mean", "member crash max",
			"coord crash mean", "coord crash max", "converged"},
	}
	for _, n := range sizes {
		mem := runViewChange(n, false, o.seed(1000+int64(n)))
		coord := runViewChange(n, true, o.seed(1100+int64(n)))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(mem.meanLatency), ms(mem.maxLatency),
			ms(coord.meanLatency), ms(coord.maxLatency),
			fmt.Sprintf("%t/%t", mem.converged, coord.converged),
		})
	}
	return t
}
