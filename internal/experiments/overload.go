package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// overloadParams parameterizes one slow-receiver run: a full membership +
// reliable-multicast stack, one member stalled (alive, heartbeating, not
// draining) partway through a steady multicast workload.
type overloadParams struct {
	n          int
	flowWindow int // 0 = unbounded history (the ablation)
	policy     member.SlowPolicy
	grace      time.Duration
	stall      time.Duration // 0 = no-fault baseline
	msgs       int           // offered multicasts across the window
	window     time.Duration
	seed       int64
}

// overloadResult aggregates one run.
type overloadResult struct {
	// historyPeak is the largest unstable-history length sampled at any
	// node; flowPeak the largest own-send occupancy. The flow window
	// bounds flowPeak; without it historyPeak grows with the stall.
	historyPeak int
	flowPeak    int
	// accepted counts workload multicasts the stack took (rejected slots
	// retry with backoff, modelling a blocking sender); blocked counts
	// backpressure rejections along the way.
	accepted int
	blocked  uint64
	// evicted reports the stalled member's fate; evictAt is when the
	// coordinator first installed a view excluding it (zero if never).
	evicted bool
	evictAt time.Duration
	// stallAt is when the stall began, for grace accounting.
	stallAt time.Duration
	// throughput is accepted multicasts per offered-window second.
	throughput float64
}

// runOverload executes one slow-receiver scenario. The stalled member is
// the highest ID (never the coordinator); the workload is spread over
// eight senders that retry rejected sends, so backpressure defers rather
// than drops offered load.
func runOverload(p overloadParams) overloadResult {
	sim := netsim.New(netsim.Config{
		Seed: p.seed,
		Profile: func(_, _ id.Node) netsim.Link {
			return netsim.Link{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.01}
		},
	})

	stalled := id.Node(p.n)
	res := overloadResult{}
	stacks := make(map[id.Node]*core.Stack, p.n)
	for i := 1; i <= p.n; i++ {
		m := id.Node(i)
		contact := id.Node(1)
		if m == 1 {
			contact = id.None
		}
		isCoord := m == id.Node(1)
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			st := core.NewStack(env, core.Config{
				Group:            1,
				Contact:          contact,
				PrimaryPartition: true,
				HeartbeatEvery:   40 * time.Millisecond,
				SuspectAfter:     200 * time.Millisecond,
				FlushTimeout:     400 * time.Millisecond,
				JoinRetry:        100 * time.Millisecond,
				ResendAfter:      40 * time.Millisecond,
				StabilizeEvery:   100 * time.Millisecond,
				FlowWindow:       p.flowWindow,
				SlowPolicy:       p.policy,
				SlowGrace:        p.grace,
			}, core.Hooks{
				OnView: func(v member.View) {
					// Views during join warmup exclude the last joiner too;
					// only a post-stall view without the stalled member is an
					// eviction.
					if isCoord && res.evictAt == 0 && sim.Elapsed() > res.stallAt &&
						v.Size() > 1 && !v.Contains(stalled) {
						res.evictAt = sim.Elapsed()
					}
				},
			})
			stacks[m] = st
			return st
		})
	}

	warmup := 3*time.Second + time.Duration(p.n)*50*time.Millisecond
	stallAt := warmup + time.Second
	res.stallAt = stallAt
	if p.stall > 0 {
		sim.At(stallAt, func() { sim.Stall(stalled) })
		sim.At(stallAt+p.stall, func() { sim.Resume(stalled) })
	}

	// Workload: eight senders (skipping the coordinator and the stalled
	// member) offer msgs multicasts at a steady cadence across the
	// window. A rejected send retries every 50ms until the window closes
	// — the discrete-event analogue of a sender blocked in SendContext.
	senders := make([]id.Node, 0, 8)
	for i := 2; len(senders) < 8 && i < p.n; i++ {
		senders = append(senders, id.Node(i))
	}
	gap := p.window / time.Duration(p.msgs)
	end := warmup + p.window
	payload := make([]byte, 64)
	var trySend func(s id.Node)
	trySend = func(s id.Node) {
		st := stacks[s]
		if st == nil || !sim.Up(s) || st.Evicted() || st.Joining() {
			return
		}
		if err := st.MulticastStream(0, payload); err != nil {
			res.blocked++
			if sim.Elapsed()+50*time.Millisecond < end {
				sim.At(sim.Elapsed()+50*time.Millisecond, func() { trySend(s) })
			}
			return
		}
		res.accepted++
	}
	for i := 0; i < p.msgs; i++ {
		s := senders[i%len(senders)]
		at := warmup + time.Duration(i)*gap
		sim.At(at, func() { trySend(s) })
	}

	// Sample unstable history and flow occupancy through the fault and
	// settle windows, so peaks survive the final drain.
	total := end + 5*time.Second
	for at := warmup; at < total; at += 100 * time.Millisecond {
		sim.At(at, func() {
			for m, st := range stacks {
				if !sim.Up(m) {
					continue
				}
				if h := st.HistoryLen(); h > res.historyPeak {
					res.historyPeak = h
				}
				if o := st.FlowOccupancy(); o > res.flowPeak {
					res.flowPeak = o
				}
			}
		})
	}

	sim.Run(total)

	res.evicted = stacks[stalled].Evicted()
	res.throughput = float64(res.accepted) / p.window.Seconds()
	return res
}

// overloadArms returns the T10 arm parameterization: a no-fault baseline,
// the unbounded-history ablation, the flow-window (throttle) arm and the
// flow-window + EvictSlow arm, all over the same group, workload and
// stall.
func overloadArms(o Options) (base overloadParams, arms []struct {
	name string
	p    overloadParams
}) {
	n, msgs, window, stall := 64, 600, 6*time.Second, 5*time.Second
	grace := 800 * time.Millisecond
	if o.Quick {
		n, msgs, window, stall = 32, 240, 4*time.Second, 2500*time.Millisecond
		grace = 500 * time.Millisecond
	}
	const flowWindow = 16
	base = overloadParams{
		n: n, msgs: msgs, window: window, seed: o.seed(1001),
	}
	mk := func(fw int, pol member.SlowPolicy) overloadParams {
		p := base
		p.flowWindow = fw
		p.policy = pol
		p.grace = grace
		p.stall = stall
		return p
	}
	arms = []struct {
		name string
		p    overloadParams
	}{
		{"unbounded", mk(0, member.ThrottleToSlowest)},
		{"flow-throttle", mk(flowWindow, member.ThrottleToSlowest)},
		{"flow-evict", mk(flowWindow, member.EvictSlow)},
	}
	return base, arms
}

// T10Overload reproduces table T10: overload robustness with one stalled
// receiver. The rows compare a no-fault baseline, the unbounded-history
// ablation (sender memory grows with the stall), the stability-window
// arm under ThrottleToSlowest (bounded memory, throughput pinned to the
// laggard) and under EvictSlow (bounded memory, throughput restored
// after the grace-bounded eviction).
func T10Overload(o Options) Table {
	base, arms := overloadArms(o)
	t := Table{
		ID:    "T10",
		Title: fmt.Sprintf("overload robustness, n=%d, one receiver stalled %v", base.n, arms[0].p.stall),
		Columns: []string{"arm", "hist-peak", "flow-peak", "accepted", "blocked",
			"msgs/s", "evicted", "evict-after-stall"},
	}
	row := func(name string, r overloadResult) {
		evict := "-"
		if r.evictAt > 0 {
			evict = fmt.Sprintf("%v", (r.evictAt - r.stallAt).Round(10*time.Millisecond))
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", r.historyPeak),
			fmt.Sprintf("%d", r.flowPeak),
			fmt.Sprintf("%d", r.accepted),
			fmt.Sprintf("%d", r.blocked),
			fmt.Sprintf("%.0f", r.throughput),
			fmt.Sprintf("%v", r.evicted),
			evict,
		})
	}
	row("no-fault", runOverload(base))
	for _, arm := range arms {
		row(arm.name, runOverload(arm.p))
	}
	return t
}
