// Package rmcast implements the reliable multicast layer of the
// architecture: sender-sequenced multicast over the unreliable datagram
// transport, with negative-acknowledgment loss recovery, four delivery
// orderings (unordered, FIFO, causal, total), receiver-driven stability
// tracking for buffer garbage collection, and a flush hook that lets the
// membership layer approximate virtual synchrony across view changes.
//
// # Protocol sketch
//
// Every member numbers its multicasts per view (1, 2, ...). Receivers
// track the contiguous prefix received from each sender; gaps detected via
// later messages or via the periodic stability gossip (which carries each
// member's delivery horizon) trigger multicast repair requests, answered
// from the history buffer of the sender or of any member holding the data
// (suppress.go).
//
// Ordering is layered on top of the reliable per-sender streams:
//
//   - Unordered delivers every message on first receipt.
//   - FIFO delivers each sender's stream in sequence order.
//   - Causal stamps messages with a vector clock over the view's member
//     ranks and delays delivery until causally deliverable.
//   - Total routes all delivery through slots assigned by one sequencer,
//     the view coordinator. It assigns contiguous slot ranges per
//     (sender, seq-run) and announces them as pipelined KindOrderRange
//     decisions — many ranges in flight before earlier ones finish
//     delivering (window.go decides when an announcement leaves).
//
// Stability gossip (KindStable) carries, for every sender, the highest
// contiguously delivered sequence number. A message acknowledged by every
// view member is stable: history buffers drop it. On a view change the
// membership layer calls Flush, which retransmits every unstable message
// to the proposed membership before the new view is installed.
package rmcast

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/vclock"
	"scalamedia/internal/wire"
)

// Ordering selects the delivery discipline.
type Ordering int

// The delivery orderings, weakest to strongest.
const (
	// Unordered delivers on first receipt, in arrival order.
	Unordered Ordering = iota + 1
	// FIFO delivers each sender's messages in send order.
	FIFO
	// Causal delivers in an order consistent with potential causality.
	Causal
	// Total delivers all messages in one agreed order on all members.
	Total
)

// String returns the ordering's conventional name.
func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	case Total:
		return "total"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Default protocol timing.
const (
	DefaultResendAfter    = 40 * time.Millisecond
	DefaultStabilizeEvery = 150 * time.Millisecond
	// keepaliveFactor scales StabilizeEvery into how long a member with
	// an unchanged ack vector stays silent before re-gossiping anyway.
	keepaliveFactor = 4
)

// Errors returned by Multicast.
var (
	// ErrNoView reports a multicast attempted before a view installed.
	ErrNoView = errors.New("rmcast: no view installed")
	// ErrPayloadTooLarge reports a payload above wire.MaxBody.
	ErrPayloadTooLarge = errors.New("rmcast: payload too large")
	// ErrBackpressure reports a multicast refused because the sender's
	// unstable history has reached Config.FlowWindow (or
	// Config.FlowWindowBytes): some member has not acknowledged enough of
	// the outstanding traffic. The send can be retried once the window
	// reopens (Config.OnFlowOpen signals that). A view change that already
	// defers maxQueuedSends multicasts refuses more with it too, until the
	// next view installs.
	ErrBackpressure = errors.New("rmcast: flow window full")
)

// DefaultSlowAfter is the ack-lag (in messages behind the local delivery
// horizon) at which a member is flagged slow when Config.SlowAfter is
// unset and no flow window implies a tighter bound.
const DefaultSlowAfter = 64

// Delivery is one message handed to the application.
type Delivery struct {
	Group   id.Group
	Sender  id.Node
	Seq     uint64
	View    id.View
	Stream  id.Stream
	Payload []byte
}

// Config parameterizes a multicast engine.
type Config struct {
	// Group scopes all traffic.
	Group id.Group
	// Ordering selects the delivery discipline. Defaults to FIFO.
	Ordering Ordering
	// OnDeliver receives application messages. Called from the event
	// loop; must not block.
	OnDeliver func(Delivery)
	// ResendAfter is the base interval of total-order slot re-requests:
	// how long after a request to the sequencer that went unanswered a
	// member retries to every member, doubling per retry. The first
	// request waits for no fixed interval but for an overdue
	// announcement (see scanOrderGaps). Defaults to DefaultResendAfter.
	ResendAfter time.Duration
	// StabilizeEvery is the stability gossip period. Defaults to
	// DefaultStabilizeEvery.
	StabilizeEvery time.Duration
	// Metrics, when non-nil, receives live protocol counters under names
	// prefixed with MetricsPrefix. When nil the engine still counts (the
	// Counters accessor keeps working) but registers nothing.
	Metrics *stats.Registry
	// MetricsPrefix namespaces this engine's metrics; defaults to
	// "rmcast.". The hierarchical layer runs two engines per relay and
	// distinguishes them as "rmcast.local." and "rmcast.wide.".
	MetricsPrefix string
	// Flight, when non-nil, records protocol milestone events (sends,
	// deliveries, NACKs, retransmissions, gossip) into the flight
	// recorder ring. Nil disables recording at zero cost.
	Flight *flightrec.Recorder
	// Distance estimates the one-way delay to a peer, scaling the
	// suppression timers so nearer receivers request (and nearer holders
	// repair) first. Live stacks can wire it to clock-sync RTT samples;
	// nil (or a zero return) falls back to the engine's own measurement
	// (half the request → repair round trip, see suppress.go), and to
	// DefaultPeerDistance before the first sample.
	Distance func(id.Node) time.Duration
	// FlowWindow bounds this sender's own unstable history in messages:
	// once FlowWindow of its multicasts are delivered locally but not yet
	// acknowledged by every view member, MulticastStream refuses further
	// sends with ErrBackpressure until stability collection drains the
	// window. Zero disables flow control (the historical unbounded
	// behaviour).
	FlowWindow int
	// FlowWindowBytes optionally bounds the same window in payload bytes;
	// whichever of the two limits fills first backpressures. Zero
	// disables the byte bound.
	FlowWindowBytes int
	// OnFlowOpen fires (from the event loop) when a previously full flow
	// window drains back under its bounds — the retry signal for callers
	// that received ErrBackpressure.
	OnFlowOpen func()
	// SlowAfter is the ack lag, in messages behind this node's own
	// delivery horizon, at which a view member is flagged slow. Zero
	// derives a default: FlowWindow when flow control is on (a stalled
	// receiver pins blocked senders at exactly the window, while healthy
	// peers only brush it transiently), DefaultSlowAfter otherwise. Slow
	// evaluation runs only when OnSlow is set.
	SlowAfter int
	// OnSlow fires (from the event loop) when a view member transitions
	// between slow and caught-up, with the observed maximum per-sender
	// ack lag. Lag is measured from the stability vectors the protocol
	// already gossips, so a slow-but-alive member — one that keeps
	// heartbeating and sending but stops draining — is distinguished
	// from a crashed one.
	OnSlow func(peer id.Node, lag uint64, slow bool)
}

// Counters exposes protocol event counts for tests and experiments.
type Counters struct {
	Sent         uint64 // application multicasts initiated
	Delivered    uint64 // messages handed to OnDeliver
	Duplicates   uint64 // redundant receptions discarded
	NacksSent    uint64
	NacksServed  uint64 // retransmissions sent in response to NACKs
	Retransmits  uint64 // retransmissions received
	FlushResends uint64 // messages re-sent by Flush
	OrdersSent   uint64 // sequencer slot assignments (messages sequenced)
	OrderRanges  uint64 // ordering units broadcast
	PiggyAcks    uint64 // ack vectors piggybacked on outgoing data
	GossipAcks   uint64 // standalone stability gossip broadcasts

	// Scalable-recovery counters (see suppress.go). NacksSent and
	// NacksServed count request/repair events — one per multicast, not
	// per fan-out datagram: the IP-multicast cost model.
	NacksSuppressed   uint64 // pending requests cancelled on hearing an equivalent one
	RepairsSuppressed uint64 // armed repair timers cancelled on hearing the repair
	LocalRepairs      uint64 // repairs served by a member other than the original sender

	// FlowRejected counts multicasts refused with ErrBackpressure.
	FlowRejected uint64
}

// engMetrics is the engine's live counter set. The pointers are resolved
// once at construction — against the configured registry, or as
// unregistered standalone atomics — so every hot-path increment is a
// single atomic add with no map lookup. One source of truth: Counters()
// reads these same atomics back.
type engMetrics struct {
	sent         *stats.Counter
	delivered    *stats.Counter
	duplicates   *stats.Counter
	nacksSent    *stats.Counter
	nacksServed  *stats.Counter
	retransmits  *stats.Counter
	flushResends *stats.Counter
	ordersSent   *stats.Counter
	orderRanges  *stats.Counter
	piggyAcks    *stats.Counter
	gossipAcks   *stats.Counter

	nacksSuppressed   *stats.Counter
	repairsSuppressed *stats.Counter
	localRepairs      *stats.Counter
	flowRejected      *stats.Counter

	historyLen   *stats.Gauge     // delivered-but-unstable messages buffered
	flowOcc      *stats.Gauge     // own unstable multicasts (the flow-window occupancy)
	stabilityLag *stats.Histogram // history depth sampled at stability rounds
	repairRTT    *stats.Histogram // request → original sender's repair, ms

	// Total order (see window.go).
	orderWait          *stats.Histogram // reliable here → delivered in total order, ms
	orderFlushes       *stats.Counter   // flushes that announced or relayed something
	orderFlushesEarly  *stats.Counter   // of which at an activation end (latency mode)
	orderFlushesEchoed *stats.Counter   // of which opened by the members' echoes (cadence mode)
	orderMode          *stats.Gauge     // 0 latency, 1 cadence
}

// newEngMetrics resolves the counter set against reg; a nil reg gets a
// private registry, its counters visible only through Counters().
func newEngMetrics(reg *stats.Registry, prefix string) engMetrics {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	return engMetrics{
		sent:               reg.Counter(prefix + "sent"),
		delivered:          reg.Counter(prefix + "delivered"),
		duplicates:         reg.Counter(prefix + "duplicates"),
		nacksSent:          reg.Counter(prefix + "nacks_sent"),
		nacksServed:        reg.Counter(prefix + "nacks_served"),
		retransmits:        reg.Counter(prefix + "retransmits_recv"),
		flushResends:       reg.Counter(prefix + "flush_resends"),
		ordersSent:         reg.Counter(prefix + "orders_sent"),
		orderRanges:        reg.Counter(prefix + "order_ranges"),
		piggyAcks:          reg.Counter(prefix + "acks_piggybacked"),
		gossipAcks:         reg.Counter(prefix + "acks_gossiped"),
		nacksSuppressed:    reg.Counter(prefix + "nacks_suppressed"),
		repairsSuppressed:  reg.Counter(prefix + "repairs_suppressed"),
		localRepairs:       reg.Counter(prefix + "local_repairs"),
		flowRejected:       reg.Counter(prefix + "flow_rejected"),
		historyLen:         reg.Gauge(prefix + "history_len"),
		flowOcc:            reg.Gauge(prefix + "flow_occupancy"),
		stabilityLag:       reg.Histogram(prefix + "stability_lag"),
		repairRTT:          reg.Histogram(prefix + "repair_rtt_ms"),
		orderWait:          reg.Histogram(prefix + "order_wait_ms"),
		orderFlushes:       reg.Counter(prefix + "order_flushes"),
		orderFlushesEarly:  reg.Counter(prefix + "order_flushes_early"),
		orderFlushesEchoed: reg.Counter(prefix + "order_flushes_echoed"),
		orderMode:          reg.Gauge(prefix + "order_mode"),
	}
}

// queuedMsg is one reliable message awaiting its total-order turn, with
// the instant (Unix ns) it became reliable here.
type queuedMsg struct {
	m  *wire.Message
	at int64
}

// msgKey identifies one multicast within a view.
type msgKey struct {
	sender id.Node
	seq    uint64
}

// maxQueuedSends bounds the multicasts a view-change freeze defers; past
// it multicast returns ErrBackpressure.
const maxQueuedSends = 4096

// queuedSend is one multicast deferred by a view-change freeze.
type queuedSend struct {
	stream  id.Stream
	payload []byte
}

// orderState is the total-order plane of one view: the receiver-side
// decision log and delivery cursor for the slot space, plus the
// assignment buffer used when this node is the sequencer.
//
// Decisions are immutable units (wire.OrderRange values): a unit is
// announced once, re-served verbatim during recovery, and never split or
// coalesced after the flush that numbered it. Receivers therefore dedup
// by slot position alone — a unit starting below decideNext is known in
// full — and the log needs no per-slot index.
type orderState struct {
	decideNext uint64                     // lowest slot not covered by log
	log        []wire.OrderRange          // contiguous admitted units, slot order
	pend       map[uint64]wire.OrderRange // out-of-order units by SlotFrom
	logIdx     int                        // delivery cursor: index into log
	logOff     uint32                     // delivery cursor: offset into log[logIdx]
	delivered  uint64                     // messages delivered in total order
	waiting    int                        // reliable messages queued undelivered
	decidedAt  int64                      // when (Unix ns) an announcement last advanced decideNext

	// Sequencer state: seq-runs accumulated since the last flush. Slots
	// are assigned at flush time (SlotFrom stays unset in assign), so a
	// sender's burst collapses into one range no matter how its
	// arrivals interleave with other senders.
	seqSlot    uint64            // next slot to assign at flush
	assign     []wire.OrderRange // open runs awaiting slot assignment
	assignMsgs int               // messages covered by assign
	openRun    map[id.Node]int   // sender -> growable run index in assign

	// Echo clock (window.go): seqSlot as of the last flush, ordering ticks
	// since it, and per member rank the highest echo its data carried in
	// this view.
	annEnd uint64
	ticks  int
	echo   []uint64
}

// peerState tracks the reliable stream from one sender.
type peerState struct {
	next    uint64                   // lowest sequence number not yet contiguously received
	buf     map[uint64]*wire.Message // received out-of-order messages >= next
	early   map[uint64]bool          // delivered ahead of order (Unordered mode)
	horizon uint64                   // highest sequence known to exist

	// Total ordering: the FIFO queue of reliable-but-undelivered messages.
	// A sender's messages are sequenced in seq order, so the queue front
	// is always the next message any ordering unit for the sender can
	// reference — delivery is a cursor pop, no per-message map.
	oq     []queuedMsg
	oqHead int

	// Recovery state: the armed randomized request timer.
	reqAt      time.Time // when the pending repair request fires; zero = disarmed
	reqBackoff uint8     // backoff exponent of the next request interval
	reqMark    uint64    // next at the last request; progress past it resets backoff
	reqAttempt uint32    // request attempts for this stream, rotates responder sampling
	reqSentAt  time.Time // when our last request left; zero once its round trip is sampled
	gapAt      time.Time // when the hole at next appeared; zero = no hole
}

// Engine is the reliable multicast state machine for one node and group.
// It implements proto.Handler and must only be used from the event loop.
type Engine struct {
	env proto.Env
	cfg Config

	view member.View
	rank int // local rank in view, -1 if none

	// Sending state (per view).
	nextSend uint64
	vc       vclock.VC // causal clock over view ranks

	// Receiving state (per view).
	peers map[id.Node]*peerState

	// History of delivered-but-unstable messages for flush and NACK
	// service, keyed per view. Entries arrive in contiguous per-sender
	// sequence order (only the reliable prefix is stored), so histMin and
	// histMax bracket each sender's resident range and stability pruning
	// walks the stable prefix directly instead of scanning the whole map.
	history map[msgKey]*wire.Message
	histMin map[id.Node]uint64
	histMax map[id.Node]uint64

	// Causal holding pool: reliable-but-not-yet-deliverable messages.
	causalPool []*wire.Message

	// Total-order state (see orderState), rebuilt per view.
	ord orderState

	// Ordering cadence (see window.go): whether the runtime drives the
	// ordering clock, the current mode, the messages this node sequenced in
	// the open window and the clock's ticks into it.
	windowed  bool
	cadence   bool
	windowSeq int
	winTicks  int

	// Stability: per-member ack vectors.
	ackMatrix     map[id.Node]map[id.Node]uint64
	lastGossip    time.Time // last time the local vector went out (gossip or piggyback)
	lastStableTry time.Time // last periodic gossip consideration
	ackDirty      bool      // local vector changed since it last went out
	ackMerges     uint8     // merges since the last inline stability collection

	// Batched control traffic, flushed per tick.
	nackQueue map[id.Node][]wire.NackRange // coalesced NACKs per destination
	nackDsts  []id.Node                    // flushNacks scratch

	// Reusable scratch to keep the steady-state send path allocation-free.
	outScratch   wire.Message // multicast's outgoing copy
	ackScratch   []wire.AckEntry
	bodyScratch  []byte
	rangeScratch []wire.OrderRange
	decRanges    []wire.OrderRange // KindOrderRange decode scratch

	// Messages for a view newer than the installed one, replayed after
	// installation.
	futureBuf []*wire.Message

	// View-change freeze: while a view proposal is being flushed, new
	// multicasts and new sequencer slot assignments are deferred so the
	// membership layer's flush-convergence check stays authoritative
	// (see Freeze).
	frozen    bool
	sendQueue []queuedSend
	// flushTo is the membership the last Flush was for (zero outside a
	// view change); see excludedLate.
	flushTo member.View

	// Scalable recovery (see suppress.go): armed repair timers per
	// original sender, the duplicate-repair damping memory, and this
	// node's private deterministic randomness for the suppression timer
	// draws.
	repairs       map[id.Node]*repairJob
	recentRepairs map[msgKey]time.Time
	rng           *rand.Rand

	// Measured per-peer round trips and reordering windows, and the
	// smallest windowed round trip over all peers; unlike peers, these
	// outlive a view change.
	timings map[id.Node]*peerTiming
	minRTT  time.Duration

	// Total-order slot re-request backoff (mirrors the per-sender request
	// backoff; resets when ordered delivery advances), when (Unix ns) the
	// last request left, and the previous OnTick (see scanOrderGaps).
	orderNackBackoff uint8
	orderNackMark    uint64
	lastOrderNack    int64
	lastTick         time.Time

	// Flow control: whether the window is currently full (one EvFlowBlock
	// per fill, one OnFlowOpen per drain), and the payload bytes of own
	// unstable multicasts when FlowWindowBytes bounds them.
	flowBlocked bool
	flowBytes   int

	// Slow-receiver tracking: members currently flagged slow, evaluated
	// from the stability matrix each stability period (see evalSlow).
	slowPeers map[id.Node]bool

	met engMetrics
}

var (
	_ proto.Handler  = (*Engine)(nil)
	_ proto.Windowed = (*Engine)(nil)
)

// New returns a multicast engine with no view. Wire it to a membership
// engine by calling SetView from Config.OnView and Flush from
// Config.OnFlush.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.Ordering == 0 {
		cfg.Ordering = FIFO
	}
	if cfg.ResendAfter <= 0 {
		cfg.ResendAfter = DefaultResendAfter
	}
	if cfg.StabilizeEvery <= 0 {
		cfg.StabilizeEvery = DefaultStabilizeEvery
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "rmcast."
	}
	if cfg.SlowAfter <= 0 {
		if cfg.FlowWindow > 0 {
			cfg.SlowAfter = cfg.FlowWindow
		} else {
			cfg.SlowAfter = DefaultSlowAfter
		}
	}
	e := &Engine{
		env:           env,
		cfg:           cfg,
		met:           newEngMetrics(cfg.Metrics, cfg.MetricsPrefix),
		rank:          -1,
		peers:         make(map[id.Node]*peerState),
		history:       make(map[msgKey]*wire.Message),
		histMin:       make(map[id.Node]uint64),
		histMax:       make(map[id.Node]uint64),
		ackMatrix:     make(map[id.Node]map[id.Node]uint64),
		nackQueue:     make(map[id.Node][]wire.NackRange),
		repairs:       make(map[id.Node]*repairJob),
		recentRepairs: make(map[msgKey]time.Time),
		timings:       make(map[id.Node]*peerTiming),
		slowPeers:     make(map[id.Node]bool),
		// Seeded from the node identity only, so a seeded simulation —
		// and any rerun of it — draws the same timer sequence.
		rng: rand.New(rand.NewSource(int64(mix64(uint64(env.Self()) + 0x5eed)))),
	}
	e.resetOrder()
	return e
}

// resetOrder rebuilds the total-order state for a new view.
func (e *Engine) resetOrder() {
	e.ord = orderState{openRun: make(map[id.Node]int)}
	if e.cfg.Ordering == Total {
		e.ord.echo = make([]uint64, e.view.Size())
	}
}

// Counters returns a copy of the protocol event counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Sent:         e.met.sent.Value(),
		Delivered:    e.met.delivered.Value(),
		Duplicates:   e.met.duplicates.Value(),
		NacksSent:    e.met.nacksSent.Value(),
		NacksServed:  e.met.nacksServed.Value(),
		Retransmits:  e.met.retransmits.Value(),
		FlushResends: e.met.flushResends.Value(),
		OrdersSent:   e.met.ordersSent.Value(),
		OrderRanges:  e.met.orderRanges.Value(),
		PiggyAcks:    e.met.piggyAcks.Value(),
		GossipAcks:   e.met.gossipAcks.Value(),

		NacksSuppressed:   e.met.nacksSuppressed.Value(),
		RepairsSuppressed: e.met.repairsSuppressed.Value(),
		LocalRepairs:      e.met.localRepairs.Value(),
		FlowRejected:      e.met.flowRejected.Value(),
	}
}

// rec stamps one flight-recorder event with this node's identity and
// clock; free when no recorder is configured.
func (e *Engine) rec(code flightrec.Code, a, b uint64) {
	if e.cfg.Flight != nil {
		e.cfg.Flight.Record(uint64(e.env.Self()), e.env.Now().UnixMilli(), code, a, b)
	}
}

// View returns the view the engine currently operates in.
func (e *Engine) View() member.View { return e.view }

// SetView installs a new view, resetting all per-view protocol state.
// Sequence spaces, vector clocks and total-order slots are per view; the
// preceding Flush has already pushed unstable traffic to the survivors.
func (e *Engine) SetView(v member.View) {
	e.drainForViewChange()
	e.view = v
	e.rank = v.Rank(e.env.Self())
	e.nextSend = 0
	e.vc = vclock.New(v.Size())
	e.peers = make(map[id.Node]*peerState)
	e.history = make(map[msgKey]*wire.Message)
	clear(e.histMin)
	clear(e.histMax)
	e.causalPool = nil
	e.resetOrder()
	e.ackMatrix = make(map[id.Node]map[id.Node]uint64)
	e.frozen = false
	e.flushTo = member.View{}
	e.ackDirty = false
	e.nackQueue = make(map[id.Node][]wire.NackRange)
	e.repairs = make(map[id.Node]*repairJob)
	e.recentRepairs = make(map[msgKey]time.Time)
	e.orderNackBackoff = 0
	e.orderNackMark = 0
	// Measurements outlive the view change for the members it keeps.
	for n := range e.timings {
		if !v.Contains(n) {
			delete(e.timings, n)
		}
	}
	e.refreshMinRTT()

	// The per-view history is gone, so the flow window is empty again;
	// unblock any sender waiting on it. Slow flags for members the new
	// view dropped are cleared (they are no longer anyone's problem);
	// flags for retained members persist so an eviction grace period does
	// not restart across unrelated view changes.
	e.flowBytes = 0
	e.maybeReopenFlow()
	if len(e.slowPeers) > 0 {
		departed := make([]id.Node, 0, len(e.slowPeers))
		for n := range e.slowPeers {
			if !v.Contains(n) {
				departed = append(departed, n)
			}
		}
		sort.Slice(departed, func(i, j int) bool { return departed[i] < departed[j] })
		for _, n := range departed {
			delete(e.slowPeers, n)
			e.rec(flightrec.EvSlowClear, uint64(n), 0)
			if e.cfg.OnSlow != nil {
				e.cfg.OnSlow(n, 0, false)
			}
		}
	}

	// Replay buffered messages that were sent in this view.
	pending := e.futureBuf
	e.futureBuf = nil
	for _, m := range pending {
		if m.View == v.ID {
			e.dispatch(m)
		} else if m.View > v.ID {
			e.futureBuf = append(e.futureBuf, m)
		}
	}

	// Multicasts deferred by the freeze go out in the new view; a node
	// the new view excludes drops them (it was evicted mid-send). Replay
	// bypasses the flow window: these sends were already accepted (the
	// freeze path returned nil) and must not be silently dropped now.
	queued := e.sendQueue
	e.sendQueue = nil
	if e.rank >= 0 {
		for _, q := range queued {
			e.multicast(q.stream, q.payload, false)
		}
	}
}

// drainForViewChange resolves messages still blocked on ordering when a
// view change commits. After the membership layer's flush-convergence
// gate every surviving member holds the same blocked set, so the policy
// below keeps delivery sequences identical across members:
//
//   - Total: queued messages whose ordering decisions died with the
//     sequencer (or were never assigned) are delivered in (sender, seq)
//     order — the same order everywhere, appended after the same
//     delivered prefix the flush-convergence gate equalized.
//   - Causal: pool remnants are dropped. A remnant's dependency was
//     delivered by no survivor (a live holder would have flushed it), so
//     delivering the remnant would violate causality, and dropping it is
//     consistent across members.
//   - FIFO/unordered gap buffers are dropped for the same reason: the
//     gap message exists nowhere among the survivors.
func (e *Engine) drainForViewChange() {
	if e.view.ID == 0 || e.cfg.Ordering != Total || e.ord.waiting == 0 {
		return
	}
	rest := make([]*wire.Message, 0, e.ord.waiting)
	for _, st := range e.peers {
		for _, q := range st.oq[st.oqHead:] {
			rest = append(rest, q.m)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Sender != rest[j].Sender {
			return rest[i].Sender < rest[j].Sender
		}
		return rest[i].Seq < rest[j].Seq
	})
	for _, m := range rest {
		e.deliver(m)
	}
	e.ord.waiting = 0
}

// Freeze defers new multicasts and new sequencer slot assignments until
// the next view installs. The membership layer calls it when a view
// change begins: everything this engine did before the freeze is visible
// in its stability vector (StabilityVector), so the coordinator's
// flush-convergence check sees a complete picture, and nothing sent after
// it can slip into the old view behind the check's back. Deferred
// multicasts are sent in the next view; SetView lifts the freeze.
func (e *Engine) Freeze() { e.frozen = true }

// StabilityVector appends this member's delivery state for the membership
// layer's flush-convergence gate to dst: the per-sender contiguously
// delivered counts and, under total ordering, the number of slots
// delivered. A caller that reuses dst reads it without allocating.
func (e *Engine) StabilityVector(dst []wire.AckEntry) ([]wire.AckEntry, uint64) {
	return e.appendAckRows(dst), e.ord.delivered
}

// HistoryLen returns the number of delivered-but-unstable messages held,
// which the chaos harness uses to check stability garbage collection.
func (e *Engine) HistoryLen() int { return len(e.history) }

// FlowOccupancy returns how many of this node's own multicasts are still
// unstable — the flow-window occupancy. O(1): own history entries form a
// contiguous [histMin, histMax] bracket.
func (e *Engine) FlowOccupancy() int {
	self := e.env.Self()
	lo, ok := e.histMin[self]
	if !ok {
		return 0
	}
	return int(e.histMax[self] - lo + 1)
}

// FlowBlocked reports whether the last enforced multicast hit a full flow
// window that has not reopened yet.
func (e *Engine) FlowBlocked() bool { return e.flowBlocked }

// flowFull reports whether sending one more payload of extra bytes would
// exceed a configured flow bound.
func (e *Engine) flowFull(extra int) bool {
	if e.cfg.FlowWindow > 0 && e.FlowOccupancy() >= e.cfg.FlowWindow {
		return true
	}
	return e.cfg.FlowWindowBytes > 0 && e.flowBytes+extra > e.cfg.FlowWindowBytes
}

// maybeReopenFlow clears the blocked latch — and signals OnFlowOpen — once
// the window is back under its bounds. Called wherever own history can
// shrink: stability collection and view installation.
func (e *Engine) maybeReopenFlow() {
	if !e.flowBlocked || e.flowFull(0) {
		return
	}
	e.flowBlocked = false
	e.rec(flightrec.EvFlowOpen, uint64(e.FlowOccupancy()), 0)
	if e.cfg.OnFlowOpen != nil {
		e.cfg.OnFlowOpen()
	}
}

// SlowPeers returns the members currently flagged slow, sorted, for tests
// and experiments.
func (e *Engine) SlowPeers() []id.Node {
	if len(e.slowPeers) == 0 {
		return nil
	}
	out := make([]id.Node, 0, len(e.slowPeers))
	for n := range e.slowPeers {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evalSlow re-derives each view member's ack lag from the stability
// matrix: the maximum, over senders, of how far the member's acknowledged
// prefix trails this node's own contiguously delivered prefix. Crossing
// SlowAfter flags the member slow; falling back under half the threshold
// (hysteresis, so a member hovering at the boundary does not flap its
// grace period) clears it. Runs once per stability period.
func (e *Engine) evalSlow() {
	if e.cfg.OnSlow == nil {
		return
	}
	thr := uint64(e.cfg.SlowAfter)
	self := e.env.Self()
	for _, m := range e.view.Members {
		if m == self {
			continue
		}
		var lag uint64
		row := e.ackMatrix[m]
		for snd, st := range e.peers {
			ref := st.next - 1
			if snd == e.env.Self() {
				ref = e.nextSend
			}
			if got := row[snd]; ref > got && ref-got > lag {
				lag = ref - got
			}
		}
		switch flagged := e.slowPeers[m]; {
		case !flagged && lag >= thr:
			e.slowPeers[m] = true
			e.rec(flightrec.EvSlowFlag, uint64(m), lag)
			e.cfg.OnSlow(m, lag, true)
		case flagged && lag < (thr+1)/2:
			delete(e.slowPeers, m)
			e.rec(flightrec.EvSlowClear, uint64(m), lag)
			e.cfg.OnSlow(m, lag, false)
		}
	}
}

// Flush retransmits every unstable message in the local history to the
// members of the proposed view. The membership layer calls it between
// ViewPropose and FlushOK; receivers discard duplicates, so over-sending
// is safe.
func (e *Engine) Flush(proposed member.View) {
	if e.view.ID == 0 {
		return
	}
	e.flushTo = proposed
	// Prune first: the inline collection is throttled, so the history may
	// hold entries the ack matrix already proves stable — retransmitting
	// those would be wasted flush traffic.
	e.collectStable()
	// Iterate in (sender, seq) order so the datagram sequence — and with
	// it a seeded simulation — is identical on every run.
	keys := make([]msgKey, 0, len(e.history))
	for k := range e.history {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sender != keys[j].sender {
			return keys[i].sender < keys[j].sender
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		// One copy per message, not per destination: Env.Send encodes
		// synchronously and does not retain the message.
		r := *e.history[k]
		r.Kind = wire.KindRetrans
		for _, dst := range proposed.Members {
			if dst == e.env.Self() {
				continue
			}
			e.env.Send(dst, &r)
			e.met.flushResends.Inc()
		}
	}
	// The flush-convergence gate waits for every survivor to deliver the
	// same slot prefix, and the sequencer may be the member that left:
	// ask every member that stays for ordering state now rather than at
	// the next retry of scanOrderGaps.
	if e.ord.waiting > 0 && e.view.Coordinator() != e.env.Self() {
		e.requestOrder(e.env.Now().UnixNano(), proposed.Members)
		e.flushNacks()
	}
}

// Multicast sends payload to the current view on stream 0. The local
// node delivers its own message through the same pipeline as remote
// receivers.
func (e *Engine) Multicast(payload []byte) error {
	return e.MulticastStream(0, payload)
}

// MulticastStream sends payload labelled with a media stream. The label
// is carried through to Delivery untouched; it has no protocol effect.
func (e *Engine) MulticastStream(stream id.Stream, payload []byte) error {
	return e.multicast(stream, payload, true)
}

// multicast is the send path behind Multicast/MulticastStream. enforceFlow
// applies the stability-window bound; the freeze-queue replay at SetView
// passes false because those sends were already accepted.
func (e *Engine) multicast(stream id.Stream, payload []byte, enforceFlow bool) error {
	if e.view.ID == 0 || e.rank < 0 {
		return ErrNoView
	}
	if len(payload) > wire.MaxBody {
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(payload))
	}
	if e.frozen {
		// A view change is flushing: defer to the next view rather than
		// race the flush-convergence check. A full queue refuses the send
		// like a full flow window, so the caller waits or retries.
		if len(e.sendQueue) >= maxQueuedSends {
			return ErrBackpressure
		}
		e.sendQueue = append(e.sendQueue, queuedSend{
			stream: stream, payload: append([]byte(nil), payload...),
		})
		return nil
	}
	if enforceFlow && e.flowFull(len(payload)) {
		if !e.flowBlocked {
			e.flowBlocked = true
			e.rec(flightrec.EvFlowBlock, e.nextSend+1, uint64(e.FlowOccupancy()))
		}
		e.met.flowRejected.Inc()
		return ErrBackpressure
	}
	if e.cfg.FlowWindowBytes > 0 {
		e.flowBytes += len(payload)
	}
	e.nextSend++
	msg := &wire.Message{
		Kind:   wire.KindData,
		Group:  e.cfg.Group,
		View:   e.view.ID,
		Sender: e.env.Self(),
		Seq:    e.nextSend,
		Stream: stream,
		Body:   append([]byte(nil), payload...),
	}
	switch e.cfg.Ordering {
	case Causal:
		msg.Flags |= wire.FlagCausal
		// Stamp vc+1 for our rank without advancing the local clock;
		// the clock advances when the message is delivered locally,
		// keeping the deliverability test uniform for all receivers.
		ts := e.vc.Clone()
		ts.Tick(e.rank)
		msg.TS = ts
	case Total:
		msg.Flags |= wire.FlagTotalOrder
	}
	e.met.sent.Inc()
	e.rec(flightrec.EvSend, msg.Seq, 0)
	if e.view.Size() > 1 {
		// One outgoing copy for all destinations, kept in the engine so it
		// does not escape (Env.Send encodes synchronously and does not
		// retain it); the history copy stays piggyback-free so
		// retransmissions never carry a stale ack vector.
		e.outScratch = *msg
		out := &e.outScratch
		e.ackScratch = e.appendAckRows(e.ackScratch[:0])
		if len(e.ackScratch) > 0 {
			out.Flags |= wire.FlagPiggyAck
			out.Acks = e.ackScratch
			e.lastGossip = e.env.Now()
			e.ackDirty = false
			e.met.piggyAcks.Inc()
		}
		if e.cfg.Ordering == Total {
			out.Aux = e.ord.decideNext // the echo the sequencer is clocked by (window.go)
		}
		for _, m := range e.view.Members {
			if m == e.env.Self() {
				continue
			}
			e.env.Send(m, out)
		}
	}
	// Local copy through the normal pipeline (it is always in order).
	e.dispatch(msg)
	return nil
}

// OnMessage handles one inbound datagram.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Group != e.cfg.Group || e.excludedLate(from, msg) {
		return
	}
	switch msg.Kind {
	case wire.KindData, wire.KindRetrans:
		if msg.Kind == wire.KindRetrans {
			e.met.retransmits.Inc()
			e.noteRetrans(from, msg)
		} else if e.cfg.Ordering == Total {
			e.noteEcho(msg)
		}
		if msg.Flags&wire.FlagPiggyAck != 0 {
			if msg.View == e.view.ID && e.view.Contains(from) {
				e.mergeAckRow(from, msg.Acks)
			}
			// Strip before the message can reach the history buffer, so
			// retransmissions of it never replay a stale vector.
			msg.Flags &^= wire.FlagPiggyAck
			msg.Acks = nil
		}
		e.routeData(msg)
	case wire.KindNackBatch:
		e.onNackBatch(from, msg)
	case wire.KindRepairReq:
		e.onRepairReq(from, msg)
	case wire.KindOrderRange:
		e.routeOrder(msg)
	case wire.KindStable:
		e.onStable(from, msg)
	}
}

// excludedLate reports whether msg is current-view traffic of a sender
// the flushed proposal excludes, reaching this member during the view
// change other than through a member the proposal keeps. The
// coordinator's flush-convergence gate compares the delivery vectors the
// survivors acknowledged with; a message only the excluded sender (or its
// sequencer) still carries would let this member deliver past its
// acknowledged vector, in the old view, what the others never deliver.
// What a survivor relays is safe: it delivered it, so the gate makes
// every survivor deliver it.
func (e *Engine) excludedLate(from id.Node, msg *wire.Message) bool {
	if e.flushTo.ID == 0 || msg.View != e.view.ID || e.flushTo.Contains(from) {
		return false
	}
	switch msg.Kind {
	case wire.KindData, wire.KindRetrans:
		return !e.flushTo.Contains(msg.Sender)
	case wire.KindOrderRange:
		return true
	}
	return false
}

// routeData drops stale traffic, buffers future-view traffic and
// dispatches current-view traffic.
func (e *Engine) routeData(msg *wire.Message) {
	switch {
	case msg.View == e.view.ID && e.view.ID != 0:
		e.dispatch(msg)
	case msg.View > e.view.ID:
		if len(e.futureBuf) < 4096 {
			e.futureBuf = append(e.futureBuf, msg)
		}
	default:
		e.met.duplicates.Inc() // stale view: already flushed to us
	}
}

func (e *Engine) routeOrder(msg *wire.Message) {
	switch {
	case msg.View == e.view.ID && e.view.ID != 0:
		e.onOrderRange(msg)
	case msg.View > e.view.ID:
		if len(e.futureBuf) < 4096 {
			e.futureBuf = append(e.futureBuf, msg)
		}
	}
}

// dispatch runs the reliability stage for a current-view message.
func (e *Engine) dispatch(msg *wire.Message) {
	if msg.Kind == wire.KindOrderRange { // replayed from futureBuf
		e.onOrderRange(msg)
		return
	}
	st := e.peer(msg.Sender)
	if msg.Seq > st.horizon {
		st.horizon = msg.Seq
	}
	if st.next == 0 {
		st.next = 1
	}
	switch {
	case msg.Seq < st.next:
		e.met.duplicates.Inc()
	case msg.Seq == st.next:
		hole := !st.gapAt.IsZero()
		var now time.Time
		if hole {
			now = e.env.Now()
			if msg.Kind == wire.KindData {
				// The original closed the hole: reordering, not loss.
				e.timing(msg.Sender).reo.add(now.Sub(st.gapAt))
			}
		}
		e.contiguous(msg, st)
		st.next++
		for {
			nxt, ok := st.buf[st.next]
			if !ok {
				break
			}
			delete(st.buf, st.next)
			e.contiguous(nxt, st)
			st.next++
		}
		if hole {
			st.gapAt = time.Time{}
			if st.horizon >= st.next {
				st.gapAt = now // the next hole starts now
			}
		}
	default: // gap
		if st.gapAt.IsZero() {
			st.gapAt = e.env.Now()
		}
		if _, dup := st.buf[msg.Seq]; dup || st.early[msg.Seq] {
			e.met.duplicates.Inc()
			return
		}
		st.buf[msg.Seq] = msg
		if e.cfg.Ordering == Unordered {
			// Deliver immediately; remember to skip on gap fill.
			st.early[msg.Seq] = true
			e.deliver(msg)
		}
	}
}

// contiguous processes a message that extends a sender's reliable prefix.
func (e *Engine) contiguous(msg *wire.Message, st *peerState) {
	key := msgKey{sender: msg.Sender, seq: msg.Seq}
	e.history[key] = msg
	if _, ok := e.histMin[msg.Sender]; !ok {
		e.histMin[msg.Sender] = msg.Seq
	}
	e.histMax[msg.Sender] = msg.Seq // contiguous: always the new maximum
	e.ackDirty = true               // the local ack vector advances with st.next
	switch e.cfg.Ordering {
	case Unordered:
		if st.early[msg.Seq] {
			delete(st.early, msg.Seq) // already delivered ahead of order
			return
		}
		e.deliver(msg)
	case FIFO:
		e.deliver(msg)
	case Causal:
		e.causalPool = append(e.causalPool, msg)
		e.drainCausal()
	case Total:
		st.oq = append(st.oq, queuedMsg{m: msg, at: e.env.Now().UnixNano()})
		e.ord.waiting++
		e.offerTotal(msg)
		e.drainTotal()
	}
}

// deliver hands one message to the application.
func (e *Engine) deliver(msg *wire.Message) {
	e.met.delivered.Inc()
	e.rec(flightrec.EvDeliver, uint64(msg.Sender), msg.Seq)
	if e.cfg.OnDeliver == nil {
		return
	}
	e.cfg.OnDeliver(Delivery{
		Group:   msg.Group,
		Sender:  msg.Sender,
		Seq:     msg.Seq,
		View:    msg.View,
		Stream:  msg.Stream,
		Payload: msg.Body,
	})
}

// drainCausal delivers every causally deliverable message in the pool.
func (e *Engine) drainCausal() {
	progress := true
	for progress {
		progress = false
		for i := 0; i < len(e.causalPool); i++ {
			m := e.causalPool[i]
			srank := e.view.Rank(m.Sender)
			if srank < 0 {
				// Sender left the view; deliver in arrival order.
				e.causalPool = append(e.causalPool[:i], e.causalPool[i+1:]...)
				e.deliver(m)
				progress = true
				break
			}
			if vclock.Deliverable(m.TS, e.vc, srank) {
				e.causalPool = append(e.causalPool[:i], e.causalPool[i+1:]...)
				e.vc = e.vc.Merge(m.TS)
				e.deliver(m)
				progress = true
				break
			}
		}
	}
}

// rangeFlushThreshold caps how many sequenced messages accumulate before
// the sequencer flushes, whatever window.go's policy would wait for: a
// burst heavier than one window or one echo round absorbs still leaves in
// announcements of bounded size, several of them in flight at once.
const rangeFlushThreshold = 256

// offerTotal is the sequencer half of total-order reception: at the view
// coordinator the message joins the open seq-run for its sender and
// receives a slot at the next flush. Runs grow while a sender's sequence
// numbers stay contiguous, so ordering metadata is O(runs), not
// O(messages).
func (e *Engine) offerTotal(msg *wire.Message) {
	if e.frozen || e.view.Coordinator() != e.env.Self() {
		// No new assignments during a view change: every slot assigned
		// before the freeze is reflected in the sequencer's own
		// delivered-slot count, so the flush-convergence check forces
		// all members to catch up; a slot assigned after would escape
		// the check. Unassigned messages drain at SetView.
		return
	}
	o := &e.ord
	e.met.ordersSent.Inc()
	e.windowSeq++
	o.assignMsgs++
	if i, ok := o.openRun[msg.Sender]; ok && o.assign[i].SeqFrom+uint64(o.assign[i].Count) == msg.Seq {
		o.assign[i].Count++
	} else {
		o.assign = append(o.assign, wire.OrderRange{Sender: msg.Sender, SeqFrom: msg.Seq, Count: 1})
		o.openRun[msg.Sender] = len(o.assign) - 1
	}
	// Flush at once when enough assignments are pending — the pipelining
	// half of range ordering — and immediately in a singleton
	// view, where announcements reach nobody and deferring would only
	// delay local delivery.
	if o.assignMsgs >= rangeFlushThreshold || e.view.Size() == 1 {
		e.flushOrders()
	}
}

// onOrderRange admits every ordering unit in a pipelined range
// announcement, then drains once.
func (e *Engine) onOrderRange(msg *wire.Message) {
	rs, err := wire.AppendDecodedOrderRanges(e.decRanges[:0], msg.Body)
	if err != nil {
		return
	}
	e.decRanges = rs
	next := e.ord.decideNext
	for _, r := range rs {
		e.admitRange(r)
	}
	if e.ord.decideNext > next {
		e.ord.decidedAt = e.env.Now().UnixNano()
	}
	e.drainTotal()
}

// admitRange installs one immutable ordering unit into the decision log.
// A unit starting below decideNext is a duplicate in full: units are
// never split or re-coalesced after flush, so partial overlap cannot
// occur. Callers drain.
func (e *Engine) admitRange(r wire.OrderRange) {
	o := &e.ord
	if r.Count == 0 || r.SlotFrom < o.decideNext {
		return // empty or duplicate
	}
	if r.SlotFrom > o.decideNext {
		if o.pend == nil {
			o.pend = make(map[uint64]wire.OrderRange)
		}
		if _, ok := o.pend[r.SlotFrom]; !ok {
			o.pend[r.SlotFrom] = r
		}
		return
	}
	for {
		o.log = append(o.log, r)
		o.decideNext = r.SlotFrom + uint64(r.Count)
		// A decision proves the data exists: bump the sender's horizon
		// so missing data is requested promptly.
		st := e.peer(r.Sender)
		if hz := r.SeqFrom + uint64(r.Count) - 1; hz > st.horizon {
			st.horizon = hz
		}
		nr, ok := o.pend[o.decideNext]
		if !ok {
			return
		}
		delete(o.pend, o.decideNext)
		r = nr
	}
}

// drainTotal delivers every queued message whose order is now determined:
// it walks the decision log from the delivery cursor, popping each
// referenced message off its sender's FIFO queue, and stalls when the
// next unit is unknown or its data has not become reliable yet.
func (e *Engine) drainTotal() {
	o := &e.ord
	var now int64 // read once per call, on the first delivery
	for o.logIdx < len(o.log) {
		r := o.log[o.logIdx]
		st, ok := e.peers[r.Sender]
		if !ok {
			return
		}
		h := st.oqHead
		if h >= len(st.oq) || st.oq[h].m.Seq != r.SeqFrom+uint64(o.logOff) {
			return // data not reliable yet (or not at the queue front)
		}
		m := st.oq[h].m
		if now == 0 {
			now = e.env.Now().UnixNano()
		}
		e.met.orderWait.Observe(float64(now-st.oq[h].at) / 1e6)
		if h+1 == len(st.oq) {
			st.oq = st.oq[:0] // reuse the backing array
			st.oqHead = 0
		} else {
			st.oqHead = h + 1
		}
		o.logOff++
		if o.logOff == r.Count {
			o.logIdx++
			o.logOff = 0
		}
		o.waiting--
		o.delivered++
		e.deliver(m)
	}
}

// peer returns the receive state for a sender, creating it on first use.
func (e *Engine) peer(n id.Node) *peerState {
	st, ok := e.peers[n]
	if !ok {
		st = &peerState{
			next:  1,
			buf:   make(map[uint64]*wire.Message),
			early: make(map[uint64]bool),
		}
		e.peers[n] = st
	}
	return st
}

// onNackBatch serves a total-order slot request: a range with Sender ==
// id.None asks for the ordering state from slot From upward. (Data gaps
// travel as KindRepairReq, see suppress.go.)
func (e *Engine) onNackBatch(from id.Node, msg *wire.Message) {
	if msg.View != e.view.ID {
		return
	}
	ranges, _, err := wire.DecodeNackRanges(msg.Body)
	if err != nil {
		return
	}
	e.rec(flightrec.EvNackRecv, uint64(from), uint64(len(ranges)))
	for _, r := range ranges {
		if r.Sender == id.None {
			e.serveOrderRequest(from, r.From)
		}
	}
}

// orderServeWindow caps ordering units served per request.
const orderServeWindow = 512

// serveOrderRequest re-announces known ordering state from fromSlot
// upward. Any member that admitted a unit answers, not only the
// sequencer: this keeps total order recoverable after a sequencer crash.
// Units are immutable and re-served verbatim, so recovery rides the same
// compact wire path as first announcement.
func (e *Engine) serveOrderRequest(from id.Node, fromSlot uint64) {
	if e.cfg.Ordering != Total {
		return
	}
	o := &e.ord
	i := sort.Search(len(o.log), func(i int) bool {
		r := o.log[i]
		return r.SlotFrom+uint64(r.Count) > fromSlot
	})
	rs := e.rangeScratch[:0]
	for ; i < len(o.log) && len(rs) < orderServeWindow; i++ {
		rs = append(rs, o.log[i])
	}
	rs = appendPendingRanges(rs, o.pend)
	e.rangeScratch = rs
	if len(rs) == 0 {
		return
	}
	e.met.nacksServed.Add(uint64(len(rs)))
	e.bodyScratch = wire.AppendOrderRanges(e.bodyScratch[:0], rs)
	e.env.Send(from, &wire.Message{
		Kind:  wire.KindOrderRange,
		Group: e.cfg.Group,
		View:  e.view.ID,
		Body:  e.bodyScratch,
	})
}

// appendPendingRanges appends the out-of-order units in SlotFrom order
// (deterministic wire bytes under seeded simulation), capped at the serve
// window. Recovery path only — the key sort may allocate.
func appendPendingRanges(dst []wire.OrderRange, pend map[uint64]wire.OrderRange) []wire.OrderRange {
	if len(pend) == 0 || len(dst) >= orderServeWindow {
		return dst
	}
	keys := make([]uint64, 0, len(pend))
	for k := range pend {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if len(dst) >= orderServeWindow {
			break
		}
		dst = append(dst, pend[k])
	}
	return dst
}

// onStable merges a member's ack vector and garbage-collects stable state.
func (e *Engine) onStable(from id.Node, msg *wire.Message) {
	if msg.View != e.view.ID || !e.view.Contains(from) {
		return
	}
	acks, _, err := wire.DecodeAckVector(msg.Body)
	if err != nil {
		return
	}
	e.mergeAckRow(from, acks)
}

// mergeAckRow merges a member's ack vector — from standalone gossip or
// piggybacked on data — into the stability matrix. The merge keeps the
// per-sender maximum: acknowledgments only grow within a view, so a
// reordered older vector must never regress the matrix (it would delay
// garbage collection at best and, after a piggyback, resurrect rows the
// newer vector already superseded).
func (e *Engine) mergeAckRow(from id.Node, acks []wire.AckEntry) {
	row, ok := e.ackMatrix[from]
	if !ok {
		row = make(map[id.Node]uint64, len(acks))
		e.ackMatrix[from] = row
	}
	for _, a := range acks {
		if a.Seq > row[a.Sender] {
			row[a.Sender] = a.Seq
		}
		// The vector also reveals the sender's horizon: if a member
		// has delivered seq s from some sender, s messages exist.
		st := e.peer(a.Sender)
		if a.Seq > st.horizon {
			st.horizon = a.Seq
		}
	}
	// Piggybacked vectors arrive with every data datagram; running the
	// O(senders × members) collection on each would dominate dense
	// traffic. Pruning every few merges (plus every stability tick and
	// before each flush) keeps the history bounded at a fraction of the
	// cost.
	// A blocked flow window overrides the throttle: the sender is stalled
	// waiting for exactly this collection, so run it on every merge until
	// the window reopens.
	if e.ackMerges++; e.ackMerges >= 8 || e.flowBlocked {
		e.ackMerges = 0
		e.collectStable()
	}
}

// appendAckRows appends this member's stability row to dst: for every
// sender with receive state, the highest contiguously delivered sequence
// number. The local send stream appears as acked[self] = nextSend, since
// a sender delivers its own messages on send.
func (e *Engine) appendAckRows(dst []wire.AckEntry) []wire.AckEntry {
	for n, st := range e.peers {
		dst = append(dst, wire.AckEntry{Sender: n, Seq: st.next - 1})
	}
	// Deterministic wire bytes, independent of map iteration order. The
	// insertion sort keeps the per-multicast piggyback path free of the
	// closure and interface allocations sort.Slice would add.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Sender < dst[j-1].Sender; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// collectStable prunes history entries acknowledged by every view member.
// Per sender it computes the stability floor — the minimum acknowledged
// sequence across the view — and deletes the [histMin, floor] prefix by
// key. This runs on every ack-vector merge (including piggybacks on each
// data message), so the cost must be O(senders × members) plus the
// entries actually freed; the previous whole-map scan made dense traffic
// quadratic in the message count and dominated sustained-throughput runs.
func (e *Engine) collectStable() {
	if len(e.view.Members) == 0 || len(e.history) == 0 {
		return
	}
	self := e.env.Self()
	for sender, lo := range e.histMin {
		floor := ^uint64(0)
		for _, m := range e.view.Members {
			var acked uint64
			if m == self {
				if st, ok := e.peers[sender]; ok {
					acked = st.next - 1
				}
			} else {
				acked = e.ackMatrix[m][sender]
			}
			if acked < floor {
				floor = acked
			}
		}
		hi := e.histMax[sender]
		if floor > hi {
			floor = hi
		}
		trackBytes := sender == self && e.cfg.FlowWindowBytes > 0
		for seq := lo; seq <= floor; seq++ {
			k := msgKey{sender: sender, seq: seq}
			if trackBytes {
				if m, ok := e.history[k]; ok {
					e.flowBytes -= len(m.Body)
				}
			}
			delete(e.history, k)
		}
		if floor < lo {
			continue
		}
		if floor == hi {
			delete(e.histMin, sender)
			delete(e.histMax, sender)
		} else {
			e.histMin[sender] = floor + 1
		}
	}
	e.maybeReopenFlow()
}

// OnTick closes the ordering window (unless the runtime does, see
// OnWindow), runs the recovery timers and gossips stability when the
// local vector warrants it.
func (e *Engine) OnTick(now time.Time) {
	prev := e.lastTick
	e.lastTick = now
	if e.view.ID == 0 {
		return
	}
	if !e.windowed {
		e.closeWindow()
	}
	e.scanGapsSuppressed(now)
	e.fireRepairs(now)
	e.scanOrderGaps(now, prev)
	e.flushNacks()
	if now.Sub(e.lastStableTry) >= e.cfg.StabilizeEvery {
		e.lastStableTry = now
		// Quiescent suppression: skip the gossip when the vector already
		// went out unchanged (by earlier gossip or piggybacked on data),
		// but re-send after keepaliveFactor periods so a lost final vector
		// still reaches everyone and history buffers drain.
		due := now.Sub(e.lastGossip) >= e.cfg.StabilizeEvery
		if due && (e.ackDirty || now.Sub(e.lastGossip) >= keepaliveFactor*e.cfg.StabilizeEvery) {
			e.lastGossip = now
			e.ackDirty = false
			e.gossipStability()
		}
		// Collect locally too: a singleton view receives no gossip, yet
		// its history must still drain to empty.
		e.collectStable()
		// Stability lag: how many delivered messages are still waiting
		// for every member's acknowledgment, sampled once per stability
		// period (after collection, so it measures the residue).
		e.met.stabilityLag.Observe(float64(len(e.history)))
		// Slow-receiver evaluation rides the same cadence: the matrix it
		// reads only changes meaningfully between stability rounds.
		e.evalSlow()
	}
	e.met.historyLen.Set(int64(len(e.history)))
	e.met.flowOcc.Set(int64(e.FlowOccupancy()))
}

// flushOrders is the pipelined range flush: the sequencer numbers the
// seq-runs accumulated since the last flush with contiguous slot ranges,
// admits them locally — the units become immutable here, so every
// member's decision log holds the same units and recovery can re-serve
// them verbatim — and broadcasts them as KindOrderRange datagrams, without
// waiting for delivery of earlier ranges. While frozen no slots are
// assigned. It reports whether anything was sent.
func (e *Engine) flushOrders() bool {
	o := &e.ord
	if e.frozen || len(o.assign) == 0 {
		return false
	}
	rs := e.rangeScratch[:0]
	for i := range o.assign {
		o.assign[i].SlotFrom = o.seqSlot
		o.seqSlot += uint64(o.assign[i].Count)
		rs = append(rs, o.assign[i])
	}
	e.rangeScratch = rs
	o.annEnd = o.seqSlot
	o.ticks = 0
	o.assign = o.assign[:0]
	o.assignMsgs = 0
	clear(o.openRun)
	for _, r := range rs {
		e.admitRange(r)
	}
	e.broadcastOrderRanges(rs)
	e.met.orderFlushes.Inc()
	e.drainTotal()
	return true
}

// broadcastOrderRanges announces ordering units to every other member,
// chunked under the datagram limit.
func (e *Engine) broadcastOrderRanges(rs []wire.OrderRange) {
	const chunkMax = 1024
	for len(rs) > 0 {
		nr := min(len(rs), chunkMax)
		e.bodyScratch = wire.AppendOrderRanges(e.bodyScratch[:0], rs[:nr])
		msg := wire.Message{
			Kind:  wire.KindOrderRange,
			Group: e.cfg.Group,
			View:  e.view.ID,
			Body:  e.bodyScratch,
		}
		for _, m := range e.view.Members {
			if m == e.env.Self() {
				continue
			}
			e.env.Send(m, &msg)
		}
		e.met.orderRanges.Add(uint64(nr))
		rs = rs[nr:]
	}
}

// queueNack records one NACK range for the destination, to go out in the
// tick's coalesced KindNackBatch.
func (e *Engine) queueNack(dst id.Node, r wire.NackRange) {
	e.nackQueue[dst] = append(e.nackQueue[dst], r)
}

// flushNacks sends one KindNackBatch per destination with every range
// queued this tick. Destinations are visited in ID order so the datagram
// sequence is deterministic under a seeded simulation.
func (e *Engine) flushNacks() {
	if len(e.nackQueue) == 0 {
		return
	}
	dsts := e.nackDsts[:0]
	for d := range e.nackQueue {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	e.nackDsts = dsts
	for _, d := range dsts {
		e.bodyScratch = wire.AppendNackRanges(e.bodyScratch[:0], e.nackQueue[d])
		msg := wire.Message{
			Kind:  wire.KindNackBatch,
			Group: e.cfg.Group,
			View:  e.view.ID,
			Body:  e.bodyScratch,
		}
		e.env.Send(d, &msg)
		delete(e.nackQueue, d)
	}
}

// scanOrderGaps requests missing ordering state once a reliable message
// has waited for its decision longer than an announcement takes to arrive
// (orderPatience), timed from when the oldest queued message became
// reliable, or from the last announcement that advanced the decision log
// if that came later: while decisions keep arriving, a message still
// waiting is one the sequencer has not received yet, and asking cannot
// help. The wait is judged as of the previous tick, prev, so the runtime
// has had a whole tick to hand over what arrived meanwhile: a host that
// stalled every node at once delays the announcement and this check alike.
//
// The first request goes to the sequencer alone. A retry, sent ResendAfter
// (backed off) later while delivery stays stuck, goes to every member:
// after a sequencer crash the survivors collectively still know every unit
// any of them admitted, and whoever knows answers. The sequencer itself
// never asks: nobody knows more of its own slot space.
func (e *Engine) scanOrderGaps(now, prev time.Time) {
	o := &e.ord
	coord := e.view.Coordinator()
	if o.waiting == 0 || coord == e.env.Self() || prev.IsZero() {
		return
	}
	if o.delivered > e.orderNackMark {
		e.orderNackBackoff = 0 // delivery advanced since the last request
	}
	ns := now.UnixNano()
	if e.orderNackBackoff == 0 {
		since := max(e.oldestQueued(), o.decidedAt, e.lastOrderNack)
		if prev.UnixNano()-since < int64(e.orderPatience(coord, now.Sub(prev))) {
			return
		}
		e.requestOrder(ns, []id.Node{coord})
		return
	}
	ival := e.backoffStretch(e.cfg.ResendAfter, e.orderNackBackoff-1)
	ival += time.Duration(e.rng.Int63n(int64(ival)/2 + 1))
	if ns-e.lastOrderNack >= int64(ival) {
		e.requestOrder(ns, e.view.Members)
	}
}

// requestOrder queues a request for ordering state from slot decideNext
// upward to every other current-view member among dsts, and backs the
// next retry off.
func (e *Engine) requestOrder(now int64, dsts []id.Node) {
	o := &e.ord
	e.lastOrderNack = now
	e.orderNackMark = o.delivered
	if e.orderNackBackoff < maxBackoffShift {
		e.orderNackBackoff++
	}
	for _, m := range dsts {
		if m == e.env.Self() || !e.view.Contains(m) {
			continue
		}
		e.queueNack(m, wire.NackRange{Sender: id.None, From: o.decideNext})
		e.met.nacksSent.Inc()
		e.rec(flightrec.EvNackSent, uint64(id.None), o.delivered)
	}
}

// orderPatience is how long a reliable message waits for its ordering
// decision before this member asks the sequencer for it: one announcement
// period (the ordering window under a runtime that drives it, else the
// tick that closes the window) plus a round trip to the sequencer. By the
// triangle inequality that covers the sender reaching the sequencer later
// than it reached this member, so only a lost or stuck announcement waits
// longer.
func (e *Engine) orderPatience(coord id.Node, tick time.Duration) time.Duration {
	period := tick
	if e.windowed {
		period = OrderWindow
	}
	return period + 2*e.distance(coord)
}

// oldestQueued returns when (Unix ns) the longest-waiting message queued
// for total order became reliable here.
func (e *Engine) oldestQueued() int64 {
	oldest := int64(math.MaxInt64)
	for _, st := range e.peers {
		if st.oqHead < len(st.oq) {
			oldest = min(oldest, st.oq[st.oqHead].at)
		}
	}
	return oldest
}

// gossipStability broadcasts this member's ack vector.
func (e *Engine) gossipStability() {
	e.met.gossipAcks.Inc()
	e.rec(flightrec.EvGossip, uint64(len(e.history)), 0)
	e.ackScratch = e.appendAckRows(e.ackScratch[:0])
	e.bodyScratch = wire.AppendAckVector(e.bodyScratch[:0], e.ackScratch)
	msg := wire.Message{
		Kind:  wire.KindStable,
		Group: e.cfg.Group,
		View:  e.view.ID,
		Body:  e.bodyScratch,
	}
	for _, m := range e.view.Members {
		if m == e.env.Self() {
			continue
		}
		e.env.Send(m, &msg)
	}
}
