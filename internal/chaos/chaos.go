package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
)

// Scenario phases. Faults and workload only run inside the fault window;
// the join window lets the group form cleanly and the settle window lets
// recovery, evictions and stability GC quiesce before invariants run.
const (
	joinWindow   = 1500 * time.Millisecond
	settleWindow = 5 * time.Second
)

// StackConfig is node n's stack in a scenario's group: node 1 founds the
// group and every other node joins through it, membership runs the
// primary-partition rule, and protocol timing is compressed relative to
// the live defaults so a few virtual seconds exercise many rounds.
func StackConfig(group id.Group, n id.Node) core.Config {
	contact := id.Node(1)
	if n == 1 {
		contact = id.None
	}
	return core.Config{
		Group:            group,
		Contact:          contact,
		PrimaryPartition: true,
		HeartbeatEvery:   40 * time.Millisecond,
		SuspectAfter:     200 * time.Millisecond,
		FlushTimeout:     400 * time.Millisecond,
		JoinRetry:        100 * time.Millisecond,
		ResendAfter:      40 * time.Millisecond,
		StabilizeEvery:   100 * time.Millisecond,
	}
}

// workloadStreams is how many stream labels Run's workload cycles over.
const workloadStreams = 4

// Options parameterizes a group scenario run.
type Options struct {
	// Seed fixes all randomness: the simulator, the workload and (when
	// Schedule is nil) the generated fault schedule.
	Seed int64
	// Nodes is the group size. Defaults to 5.
	Nodes int
	// Ordering is the multicast discipline. Defaults to rmcast.FIFO.
	Ordering rmcast.Ordering
	// Msgs is the number of workload multicasts. Defaults to 60.
	Msgs int
	// Window is the fault/workload window length. Defaults to 6s.
	Window time.Duration
	// Schedule overrides the generated fault schedule.
	Schedule Schedule
	// LossDomains, when positive, groups receivers into that many
	// correlated loss domains (netsim.SetLossDomains), so loss bursts gap
	// several receivers at once — the regime suppression exists for.
	LossDomains int
	// FlowWindow bounds each sender's unstable history to that many
	// messages (rmcast.Config.FlowWindow); the overload invariants only
	// apply when it is set.
	FlowWindow int
	// SlowPolicy selects the slow-receiver policy (member.Config).
	SlowPolicy member.SlowPolicy
	// SlowGrace is the catch-up budget before EvictSlow acts.
	SlowGrace time.Duration
	// SlowAfter is the ack-lag threshold for flagging a member slow
	// (rmcast.Config.SlowAfter).
	SlowAfter int
	// Windowed drives the stacks the way the live runner does (see
	// netsim.Config.Windowed): a total-order sequencer then announces at
	// activation ends and on its ordering window, not at its tick.
	Windowed bool
	// EchoLoad runs the scenario on echoLAN instead of the default base
	// link (2 ms ± 1 ms, 2 % loss) and opens the fault window with
	// echoBurst of every member multicasting once per burstEvery. A
	// windowed total-order sequencer then runs in cadence mode with every
	// member's data echoing its progress back (rmcast/window.go), and the
	// LAN's round trip is short enough for echoes to beat the window.
	EchoLoad bool
	// CrashOnEcho, when set, crashes that node at the end of the first
	// activation in which its members' echoes opened an order flush —
	// right after the announcement left. Restart it from the Schedule.
	CrashOnEcho id.Node
}

// baseLink is the scenarios' network unless they say otherwise: 2 ms
// ± 1 ms with 2 % loss.
var baseLink = netsim.Link{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.02}

// Options.EchoLoad's network and load: a lossless LAN whose round trip
// fits the 3 ms ordering window several times over, and 40 ms of every
// member sending every 250 µs.
var echoLAN = netsim.Link{Delay: 250 * time.Microsecond, Jitter: 100 * time.Microsecond}

const (
	echoBurst  = 40 * time.Millisecond
	burstEvery = 250 * time.Microsecond
)

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	if o.Ordering == 0 {
		o.Ordering = rmcast.FIFO
	}
	if o.Msgs <= 0 {
		o.Msgs = 60
	}
	if o.Window <= 0 {
		o.Window = 6 * time.Second
	}
}

// SentRec records one successful workload multicast.
type SentRec struct {
	Sender id.Node
	// PrefixLen is how many deliveries the sender had seen when it sent,
	// recording the message's causal obligations as a prefix of the
	// sender's delivery log.
	PrefixLen int
}

// Delivery is one recorded application delivery.
type Delivery struct {
	rmcast.Delivery
	At time.Duration
}

// ViewRec is one recorded view installation.
type ViewRec struct {
	View member.View
	At   time.Duration
}

// NodeTrace is everything one node did during a run.
type NodeTrace struct {
	Node       id.Node
	Views      []ViewRec
	Deliveries []Delivery
	// CrashedEver marks nodes the schedule crashed at least once.
	CrashedEver bool
	// StalledEver marks nodes the schedule stalled at least once, and
	// StallTotal is their cumulative scheduled stall time.
	StalledEver bool
	StallTotal  time.Duration
	// HistoryPeak and FlowPeak are the largest unstable-history length
	// and own-flow occupancy sampled during the run (only collected for
	// overload runs: a Stall in the schedule or FlowWindow set).
	HistoryPeak int
	FlowPeak    int
	// Up, Evicted, Joining and FinalHistory capture end-of-run state.
	Up           bool
	Evicted      bool
	Joining      bool
	FinalView    member.View
	FinalHistory int
	// Recovery is the node's end-of-run rmcast counter snapshot; the
	// no-repair-storm invariant bounds its request/repair event counts.
	Recovery rmcast.Counters
}

// Trace is the full record of one group scenario run.
type Trace struct {
	Opts     Options
	Schedule Schedule
	Nodes    map[id.Node]*NodeTrace
	Order    []id.Node // node iteration order, for deterministic reports
	Sent     map[string]SentRec
	// Flight is the run's shared flight recorder: every node records into
	// one ring, so the dump is the interleaved protocol timeline. The
	// simulator is single-threaded, so the ordering is seed-deterministic.
	Flight *flightrec.Recorder
	// Net is the simulator's end-of-run datagram statistics.
	Net netsim.Stats
}

// payloadKey encodes a workload payload: sender (8) | counter (8).
func payloadKey(sender id.Node, counter uint64) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf, uint64(sender))
	binary.BigEndian.PutUint64(buf[8:], counter)
	return buf
}

// payloadName renders a payload by its key for failure reports.
func payloadName(key string) string {
	if len(key) < 16 {
		return fmt.Sprintf("%q", key)
	}
	b := []byte(key)
	return fmt.Sprintf("n%d#%d",
		binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:]))
}

// Run executes one seeded group scenario: Nodes core stacks on the
// simulator, a randomized multicast workload, and the fault schedule,
// followed by a quiescent settle. The returned trace is checked with
// Trace.Violations. Membership runs the primary-partition rule: without
// it a healed split brain has no re-merge path and view convergence would
// be unachievable by design.
func Run(opts Options) *Trace {
	opts.defaults()
	sched := opts.Schedule
	if sched == nil {
		sched = Generate(opts.Seed, NodeIDs(opts.Nodes), opts.Window)
	}
	tr := &Trace{
		Opts:     opts,
		Schedule: sched,
		Nodes:    make(map[id.Node]*NodeTrace),
		Order:    NodeIDs(opts.Nodes),
		Sent:     make(map[string]SentRec),
		Flight:   flightrec.New(8192),
	}

	base := baseLink
	if opts.EchoLoad {
		base = echoLAN
	}
	sim := NewNet(NetConfig{Seed: opts.Seed, Link: base, LossDomains: opts.LossDomains, Windowed: opts.Windowed})

	stacks := make(map[id.Node]*core.Stack, opts.Nodes)
	for _, n := range tr.Order {
		nt := &NodeTrace{Node: n}
		tr.Nodes[n] = nt
		// The node CrashOnEcho names reports into a registry of its own, so
		// its wrapper can see the echoed-flush counter move.
		var reg *stats.Registry
		if n == opts.CrashOnEcho {
			reg = stats.NewRegistry()
		}
		cfg := StackConfig(7, n)
		cfg.Metrics, cfg.Flight = reg, tr.Flight
		cfg.Ordering, cfg.FlowWindow = opts.Ordering, opts.FlowWindow
		cfg.SlowPolicy, cfg.SlowGrace, cfg.SlowAfter = opts.SlowPolicy, opts.SlowGrace, opts.SlowAfter
		sim.AddNode(n, func(env proto.Env) proto.Handler {
			st := core.NewStack(env, cfg, core.Hooks{
				OnView: func(v member.View) {
					nt.Views = append(nt.Views, ViewRec{View: v, At: sim.Elapsed()})
				},
				OnDeliver: func(d rmcast.Delivery) {
					nt.Deliveries = append(nt.Deliveries, Delivery{Delivery: d, At: sim.Elapsed()})
				},
			})
			stacks[n] = st
			if reg != nil {
				return &echoCrash{Stack: st, echoed: reg.Counter("rmcast.order_flushes_echoed"), crash: func() {
					nt.CrashedEver = true
					sim.Crash(n)
				}}
			}
			return st
		})
	}

	overload := opts.FlowWindow > 0
	for _, ev := range sched {
		switch ev.Kind {
		case Crash:
			tr.Nodes[ev.Node].CrashedEver = true
		case Stall:
			tr.Nodes[ev.Node].StalledEver = true
			tr.Nodes[ev.Node].StallTotal += ev.Dur
			overload = true
		}
	}
	sim.Faults(sched, joinWindow, joinWindow+opts.Window, tr.Order)

	// Overload runs sample every node's unstable-history length and own
	// flow occupancy on a fixed cadence, so the bounded-sender-memory
	// invariant (and the T10 experiment) can see peaks, not just the
	// drained end state. Plain runs skip the samplers to keep their event
	// interleaving byte-identical to earlier revisions.
	if overload {
		sim.SamplePeaks(stacks, joinWindow, joinWindow+opts.Window+settleWindow, func(n id.Node, history, flow int) {
			nt := tr.Nodes[n]
			nt.HistoryPeak, nt.FlowPeak = max(nt.HistoryPeak, history), max(nt.FlowPeak, flow)
		})
	}

	// Workload: seeded senders spread across the fault window. A send is
	// recorded only if the stack accepted it; a node that is down, still
	// joining or evicted skips its slot.
	counters := make(map[id.Node]uint64)
	send := func(sender id.Node, stream id.Stream) {
		st := stacks[sender]
		if st == nil || !sim.Up(sender) || st.Evicted() || st.Joining() {
			return
		}
		counters[sender]++
		payload := payloadKey(sender, counters[sender])
		// The causal-obligation prefix is captured before the send:
		// Multicast self-delivers synchronously, and the message must
		// not appear among its own obligations.
		prefix := len(tr.Nodes[sender].Deliveries)
		if err := st.MulticastStream(stream, payload); err != nil {
			counters[sender]--
			return
		}
		tr.Sent[string(payload)] = SentRec{Sender: sender, PrefixLen: prefix}
	}
	seededSends(sim, opts.Seed, opts.Nodes, opts.Msgs, joinWindow, opts.Window, func(i int, sender id.Node) {
		// The workload cycles through a few stream labels: a label has no
		// protocol effect, and the fifo invariant checks exactly that.
		send(sender, id.Stream(i%workloadStreams))
	})
	for i, at := 0, time.Duration(0); opts.EchoLoad && at < echoBurst; i, at = i+1, at+burstEvery {
		sim.At(joinWindow+at, func() {
			for _, n := range NodeIDs(opts.Nodes) {
				send(n, id.Stream(i%workloadStreams))
			}
		})
	}

	sim.Run(joinWindow + opts.Window + settleWindow)

	for n, nt := range tr.Nodes {
		st := stacks[n]
		nt.Up = sim.Up(n)
		nt.Evicted = st.Evicted()
		nt.Joining = st.Joining()
		nt.FinalView = st.View()
		nt.FinalHistory = st.HistoryLen()
		nt.Recovery = st.Counters()
	}
	tr.Net = sim.Stats()
	return tr
}

// echoCrash is the handler of Options.CrashOnEcho's node: its stack, plus
// the crash that follows the first order flush its members' echoes opened.
type echoCrash struct {
	*core.Stack
	echoed *stats.Counter
	crash  func()
	fired  bool
}

// OnActivationEnd lets the stack announce, then crashes the node if the
// announcement was the first one opened by echoes.
func (h *echoCrash) OnActivationEnd() {
	h.Stack.OnActivationEnd()
	if !h.fired && h.echoed.Value() > 0 {
		h.fired = true
		h.crash()
	}
}

// seededSends schedules a scenario's workload: msgs sends, each drawn
// from seed+1 as a sender in 1..nodes, then a time in [off, off+window).
// Send i runs send at its time; it records the message only if the stack
// accepts it, numbering each sender's accepted messages from 1.
func seededSends(sim *Net, seed int64, nodes, msgs int, off, window time.Duration, send func(i int, sender id.Node)) {
	wl := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < msgs; i++ {
		sender := id.Node(1 + wl.Intn(nodes))
		at := off + time.Duration(wl.Int63n(int64(window)))
		sim.At(at, func() { send(i, sender) })
	}
}
