package chaos

import (
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
)

// NetConfig describes the simulated network a scenario runs on.
type NetConfig struct {
	// Seed fixes the simulator's randomness.
	Seed int64
	// Link is the base link every pair shares; bursts change it for
	// their duration and restore it afterwards.
	Link netsim.Link
	// Sites, when set, adds a fixed per-pair delay to Link.Delay: the
	// latency geography a self-organizing overlay should rediscover.
	Sites func(from, to id.Node) time.Duration
	// LossDomains, when positive, groups receivers into that many
	// correlated loss domains (node mod LossDomains), so one drawn loss
	// gaps several receivers at once — the regime suppression exists for.
	LossDomains int
	// Windowed drives the stacks the way the live runner does; see
	// netsim.Config.Windowed.
	Windowed bool
}

// Net is a simulator with the link state that fault schedules act on.
// Every scenario, chaos run and experiment builds its simulation here.
type Net struct {
	*netsim.Sim
	base, cur netsim.Link
	// slowed holds the extra delay SlowLink events impose on every link
	// touching a node. The profile reads cur and slowed on the simulation
	// goroutine, where faults also write them, so nothing is locked.
	slowed map[id.Node]time.Duration
}

// NewNet returns an empty simulation over cfg's network.
func NewNet(cfg NetConfig) *Net {
	net := &Net{base: cfg.Link, cur: cfg.Link, slowed: make(map[id.Node]time.Duration)}
	sites := cfg.Sites
	net.Sim = netsim.New(netsim.Config{
		Seed:     cfg.Seed,
		Windowed: cfg.Windowed,
		Profile: func(from, to id.Node) netsim.Link {
			l := net.cur
			l.Delay += net.slowed[from] + net.slowed[to]
			if sites != nil {
				l.Delay += sites(from, to)
			}
			return l
		},
	})
	if d := cfg.LossDomains; d > 0 {
		net.SetLossDomains(func(n id.Node) int { return int(n) % d })
	}
	return net
}

// Faults schedules a fault script, offset by off, followed at end by the
// safety net: whatever the schedule did, the network is healed, the
// links are clean and every stall is resumed from end on.
func (net *Net) Faults(sched Schedule, off, end time.Duration, nodes []id.Node) {
	for _, ev := range sched {
		at := off + ev.At
		switch ev.Kind {
		case Crash:
			net.At(at, func() { net.Crash(ev.Node) })
		case Restart:
			net.At(at, func() { net.Restart(ev.Node) })
		case PartitionSplit:
			net.At(at, func() { net.Partition(ev.Groups...) })
		case Heal:
			net.At(at, func() { net.Heal() })
		case LossBurst:
			net.At(at, func() { net.cur.Loss = ev.Loss; net.cur.Jitter = 4 * time.Millisecond })
			net.At(at+ev.Dur, func() { net.cur.Loss = net.base.Loss; net.cur.Jitter = net.base.Jitter })
		case DupBurst:
			net.At(at, func() { net.cur.Duplicate = ev.Dup })
			net.At(at+ev.Dur, func() { net.cur.Duplicate = net.base.Duplicate })
		case AsymmetricPartition:
			net.At(at, func() { net.BlockDirected(ev.Node, ev.Peer) })
			net.At(at+ev.Dur, func() { net.UnblockDirected(ev.Node, ev.Peer) })
		case Stall:
			net.At(at, func() { net.Stall(ev.Node) })
			net.At(at+ev.Dur, func() { net.Resume(ev.Node) })
		case SlowLink:
			delay := ev.Delay
			if delay <= 0 {
				delay = 25 * time.Millisecond
			}
			net.At(at, func() { net.slowed[ev.Node] = delay })
			net.At(at+ev.Dur, func() { delete(net.slowed, ev.Node) })
		}
	}
	net.At(end, func() {
		net.Heal()
		net.cur = net.base
		for _, n := range nodes {
			net.Resume(n)
			delete(net.slowed, n)
		}
	})
}

// SamplePeaks samples every up stack's unstable-history length and own
// flow occupancy every 100ms in [from, end), handing each to peak, so
// that overload runs see peaks and not just the drained end state.
func (net *Net) SamplePeaks(stacks map[id.Node]*core.Stack, from, end time.Duration, peak func(n id.Node, history, flow int)) {
	for at := from; at < end; at += 100 * time.Millisecond {
		net.At(at, func() {
			for n, st := range stacks {
				if net.Up(n) {
					peak(n, st.HistoryLen(), st.FlowOccupancy())
				}
			}
		})
	}
}

// Sites returns a two-level delay geography: 2ms between nodes in one
// site of size consecutive IDs, far between sites.
func Sites(size int, far time.Duration) func(a, b id.Node) time.Duration {
	return func(a, b id.Node) time.Duration {
		if (int(a)-1)/size == (int(b)-1)/size {
			return 2 * time.Millisecond
		}
		return far
	}
}

// NodeIDs returns the members of an n-node scenario: 1..n.
func NodeIDs(n int) []id.Node {
	out := make([]id.Node, n)
	for i := range out {
		out[i] = id.Node(i + 1)
	}
	return out
}
