package member

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"scalamedia/internal/failure"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// Default protocol timing.
const (
	DefaultJoinRetry    = 200 * time.Millisecond
	DefaultFlushTimeout = 600 * time.Millisecond
	// DefaultSlowGrace is how long a member may stay flagged slow before
	// the EvictSlow policy marks it for eviction.
	DefaultSlowGrace = 2 * time.Second
)

// SlowPolicy selects how the group treats a member that is alive but not
// draining traffic (flagged via SetSlow from the multicast layer's ack-lag
// tracking).
type SlowPolicy uint8

const (
	// ThrottleToSlowest (the default) never evicts for slowness: the
	// multicast flow window backpressures senders to the laggard's drain
	// rate instead. The group stays whole at the cost of throughput.
	ThrottleToSlowest SlowPolicy = iota
	// EvictSlow removes a member that stays flagged slow for a full
	// SlowGrace budget, trading the laggard's membership for restored
	// group throughput. The grace budget is what separates this from the
	// failure detector misclassifying "slow" as "crashed": a member is
	// never evicted for slowness on first flag.
	EvictSlow
)

// String returns the policy name.
func (p SlowPolicy) String() string {
	switch p {
	case ThrottleToSlowest:
		return "throttle-to-slowest"
	case EvictSlow:
		return "evict-slow"
	default:
		return fmt.Sprintf("SlowPolicy(%d)", uint8(p))
	}
}

// maxJoinRounds is the coordinator's admission retry budget: a joiner
// that sits in consecutive failed proposal rounds without ever acking is
// quarantined after this many, so one unreachable joiner cannot keep
// churning proposal state forever.
const maxJoinRounds = 3

// ErrJoinUnreachable is reported through Config.OnJoinFailed when the
// join attempt cap (Config.JoinAttempts) is exhausted without admission.
var ErrJoinUnreachable = errors.New("member: contact unreachable, join attempts exhausted")

// reachability mirrors transport.Reachability without importing the
// transport package (the engine is sans-IO). The driver's Env may
// implement it; when it does not, every node is assumed reachable.
type reachability interface {
	CanReach(n id.Node) bool
}

// Config parameterizes a membership engine.
type Config struct {
	// Group is the group this engine manages membership for.
	Group id.Group
	// Contact is an existing member to join through. id.None bootstraps
	// a new group with the local node as its only member.
	Contact id.Node
	// JoinRetry is the base interval between join requests. Defaults to
	// DefaultJoinRetry. Retries back off exponentially (with jitter)
	// from this base up to JoinBackoffMax, so a dead or partitioned
	// contact sees a damped trickle instead of a fixed-rate hammer.
	JoinRetry time.Duration
	// JoinBackoffMax caps the jittered exponential join backoff.
	// Defaults to 16× JoinRetry.
	JoinBackoffMax time.Duration
	// JoinAttempts caps how many join requests are sent before the
	// engine gives up and reports ErrJoinUnreachable through
	// OnJoinFailed. Zero means retry forever (the historical
	// behaviour, and the right choice when the contact is expected to
	// come back).
	JoinAttempts int
	// AdvertiseAddr is the transport address this node asks the group to
	// reach it at. It rides in join requests and is redistributed in
	// view bodies, so members need no out-of-band peer configuration.
	// Empty is valid: the transport's return-address learning then
	// covers nodes the coordinator has heard from directly.
	AdvertiseAddr string
	// FlushTimeout is how long the coordinator waits for FlushOK
	// responses before evicting silent members from the proposal.
	// Defaults to DefaultFlushTimeout.
	FlushTimeout time.Duration
	// HeartbeatEvery and SuspectAfter tune the embedded failure
	// detector; zero values take the detector's defaults.
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	// OnView is called when a new view is installed, including the
	// bootstrap view. Called from the event loop; must not block.
	OnView func(View)
	// OnFlush is called when the engine, as a member, has accepted a
	// view proposal and must flush unstable multicast traffic before
	// acknowledging. The multicast layer retransmits synchronously.
	// Optional.
	OnFlush func(proposed View)
	// OnEvicted is called if the local node is removed from the group
	// by a committed view (for example after a false suspicion).
	// Optional.
	OnEvicted func(View)
	// OnJoinFailed is called once, with ErrJoinUnreachable, when the
	// JoinAttempts cap is exhausted. The engine stops retrying; the
	// application decides whether to restart with a different contact.
	// Optional.
	OnJoinFailed func(error)
	// OnPeerAddr is called when the engine learns a member's advertised
	// transport address (from a join request or a view body), so the
	// driver can teach the transport's peer table. Optional; called from
	// the event loop, must not block.
	OnPeerAddr func(n id.Node, addr string)
	// PrimaryPartition, when true, applies the majority rule: a
	// coordinator only installs a view containing a strict majority of
	// the previous view. A minority partition blocks (no view changes)
	// instead of splitting the group's brain; its members must rejoin
	// after the partition heals.
	PrimaryPartition bool
	// Snapshot, when set, is called on the coordinator as it commits a
	// view that admits new members; the returned application state is
	// sent to each of them (best-effort, one datagram). Optional.
	Snapshot func() []byte
	// OnState receives the application state snapshot on a joining
	// node. Optional.
	OnState func(v View, state []byte)
	// Metrics, when non-nil, receives live membership counters
	// (member.views_installed, member.proposals, member.evictions).
	Metrics *stats.Registry
	// Flight, when non-nil, records view proposals, installations and
	// evictions into the flight recorder ring.
	Flight *flightrec.Recorder
	// SlowPolicy selects what happens to members flagged slow via
	// SetSlow: throttle senders to them (default) or evict after
	// SlowGrace. See the SlowPolicy constants.
	SlowPolicy SlowPolicy
	// SlowGrace is the budget a slow member gets to catch up before the
	// EvictSlow policy slates it for eviction. Defaults to
	// DefaultSlowGrace. Ignored under ThrottleToSlowest.
	SlowGrace time.Duration
	// StabilityVector, when set, supplies the multicast layer's delivery
	// state: per-sender contiguously delivered counts plus the count of
	// totally-ordered slots delivered. FlushOK messages then carry it,
	// and a coordinator withholds ViewCommit until every surviving
	// member reports matching state — true virtual-synchrony agreement
	// instead of the best-effort one-shot flush. Optional.
	StabilityVector func() (acks []wire.AckEntry, orderedSlots uint64)
}

// pendingJoinState is the coordinator's bookkeeping for one admission in
// progress: the joiner's advertised address (empty if none), when the
// admission started (for the TTL backstop), and how many failed proposal
// rounds the joiner has burned without acking (for the retry budget).
type pendingJoinState struct {
	addr   string
	since  time.Time
	rounds int
}

// quarEntry is one quarantined joiner: parked until the TTL expires, or —
// when parked purely for lack of a return address (noAddr) — until the
// transport learns one.
type quarEntry struct {
	until  time.Time
	noAddr bool
}

// Engine is the membership state machine for one node and one group.
// It implements proto.Handler and must only be used from the event loop.
type Engine struct {
	env   proto.Env
	cfg   Config
	det   *failure.Detector
	reach reachability // non-nil when the env can report reachability

	// Live metric counters, resolved once in New (standalone atomics
	// when no registry is configured, so increments are unconditional).
	mViews        *stats.Counter
	mProposals    *stats.Counter
	mEvictions    *stats.Counter
	mJoinAttempts *stats.Counter
	mQuarantined  *stats.Counter
	mSlowFlagged  *stats.Counter
	mSlowEvicted  *stats.Counter
	mJoinBackoff  *stats.Histogram

	view    View // zero-ID means no view installed yet
	joining bool
	evicted bool

	// Join-retry state: attempt count toward the cap, the earliest time
	// the next request may go out, and the sticky failure latch. rng is
	// a splitmix64 state for backoff jitter, seeded from the node ID so
	// runs stay deterministic under the simulator.
	joinAttempt int
	nextJoin    time.Time
	joinFailed  bool
	rng         uint64

	// addrs is the learned member→address map, fed by join requests and
	// view bodies and redistributed in every view body this node sends.
	addrs map[id.Node]string

	// Coordinator-side state. pendingEvict entries are provisional: a
	// member that failed to flush in time is slated for eviction, but any
	// traffic heard from it cancels the sentence — except for voluntary
	// leavers, tracked in left, whose departure is final. quarantine
	// parks joiners the coordinator cannot reach or that exhausted the
	// admission retry budget, keeping them out of proposal state.
	pendingJoin  map[id.Node]*pendingJoinState
	pendingEvict map[id.Node]bool
	left         map[id.Node]bool
	quarantine   map[id.Node]quarEntry

	// Slow-receiver state. slowSince records when each peer was flagged
	// slow (fed by SetSlow from the multicast layer's ack-lag tracking).
	// slowEvict holds slow members whose grace budget expired under the
	// EvictSlow policy. Unlike pendingEvict it is NOT cancelled by
	// inbound traffic: a stalled node keeps heartbeating and gossiping a
	// stale ack vector, so liveness evidence is exactly what slowness
	// looks like on the wire. Only catching up (SetSlow false) clears it.
	slowSince   map[id.Node]time.Time
	slowEvict   map[id.Node]bool
	proposal    *proposalState
	highestSent id.View // highest view number this node ever proposed

	// committedLog retains recent installed views so a coordinator can
	// replay a missed commit to a straggler, stepping it through the
	// same view sequence instead of letting it skip views.
	committedLog []View

	// lastEject rate-limits eviction notifications to stale non-members.
	lastEject map[id.Node]time.Time

	// Member-side state: the highest proposal accepted but not yet
	// committed, retained so duplicate proposes re-ack idempotently;
	// acceptedFrom is its proposer, the target for periodic re-acks.
	accepted     View
	acceptedFrom id.Node
	lastReflush  time.Time
}

type proposalState struct {
	view     View
	acks     map[id.Node]bool
	vectors  map[id.Node]flushState
	deadline time.Time
}

// flushState is one member's delivery state reported in its FlushOK, used
// by the flush-convergence gate (see Config.StabilityVector).
type flushState struct {
	base  id.View // the view the member flushed from
	acks  map[id.Node]uint64
	slots uint64
}

var _ proto.Handler = (*Engine)(nil)

// New returns a membership engine. If cfg.Contact is id.None the engine
// installs a singleton bootstrap view on its first tick; otherwise it
// starts joining through the contact.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.JoinRetry <= 0 {
		cfg.JoinRetry = DefaultJoinRetry
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
	if cfg.JoinBackoffMax <= 0 {
		cfg.JoinBackoffMax = 16 * cfg.JoinRetry
	}
	e := &Engine{
		env:           env,
		cfg:           cfg,
		joining:       cfg.Contact != id.None,
		mViews:        &stats.Counter{},
		mProposals:    &stats.Counter{},
		mEvictions:    &stats.Counter{},
		mJoinAttempts: &stats.Counter{},
		mQuarantined:  &stats.Counter{},
		mSlowFlagged:  &stats.Counter{},
		mSlowEvicted:  &stats.Counter{},
		mJoinBackoff:  &stats.Histogram{},
		rng:           uint64(env.Self())*0x9e3779b97f4a7c15 + 1,
		addrs:         make(map[id.Node]string),
		pendingJoin:   make(map[id.Node]*pendingJoinState),
		pendingEvict:  make(map[id.Node]bool),
		left:          make(map[id.Node]bool),
		quarantine:    make(map[id.Node]quarEntry),
		slowSince:     make(map[id.Node]time.Time),
		slowEvict:     make(map[id.Node]bool),
		lastEject:     make(map[id.Node]time.Time),
	}
	e.reach, _ = env.(reachability)
	if cfg.Metrics != nil {
		e.mViews = cfg.Metrics.Counter("member.views_installed")
		e.mProposals = cfg.Metrics.Counter("member.proposals")
		e.mEvictions = cfg.Metrics.Counter("member.evictions")
		e.mJoinAttempts = cfg.Metrics.Counter("member.join_attempts")
		e.mQuarantined = cfg.Metrics.Counter("member.quarantined")
		e.mSlowFlagged = cfg.Metrics.Counter("member.slow_flagged")
		e.mSlowEvicted = cfg.Metrics.Counter("member.slow_evicted")
		e.mJoinBackoff = cfg.Metrics.Histogram("member.join_backoff_ms")
	}
	e.det = failure.New(env, failure.Config{
		Group:          cfg.Group,
		HeartbeatEvery: cfg.HeartbeatEvery,
		SuspectAfter:   cfg.SuspectAfter,
	})
	return e
}

// View returns the currently installed view (zero-ID if none yet).
func (e *Engine) View() View { return e.view }

// Joining reports whether the node is still waiting for admission.
func (e *Engine) Joining() bool { return e.joining }

// JoinFailed reports whether the engine gave up joining at the attempt
// cap (see Config.JoinAttempts).
func (e *Engine) JoinFailed() bool { return e.joinFailed }

// Quarantined returns the joiners currently parked by this coordinator,
// sorted; empty on non-coordinators.
func (e *Engine) Quarantined() []id.Node {
	out := make([]id.Node, 0, len(e.quarantine))
	for n := range e.quarantine {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Evicted reports whether the node was removed from the group.
func (e *Engine) Evicted() bool { return e.evicted }

// SetSlow updates a member's slow flag from the multicast layer's ack-lag
// tracking. Flagging starts the grace clock (once; re-flagging while
// already flagged does not restart it); clearing stops it and — under
// EvictSlow — pardons a member already slated, provided the view change
// has not committed yet. Call from the event loop.
func (e *Engine) SetSlow(peer id.Node, slow bool) {
	if peer == e.env.Self() {
		return
	}
	if slow {
		if _, ok := e.slowSince[peer]; !ok {
			e.slowSince[peer] = e.env.Now()
			e.mSlowFlagged.Inc()
		}
		return
	}
	delete(e.slowSince, peer)
	delete(e.slowEvict, peer)
}

// SlowMembers returns the members currently flagged slow, sorted.
func (e *Engine) SlowMembers() []id.Node {
	out := make([]id.Node, 0, len(e.slowSince))
	for n := range e.slowSince {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slowGrace returns the configured grace budget (defaulted).
func (e *Engine) slowGrace() time.Duration {
	if e.cfg.SlowGrace > 0 {
		return e.cfg.SlowGrace
	}
	return DefaultSlowGrace
}

// checkSlowGrace slates members whose slow-grace budget has expired for
// eviction (EvictSlow policy only). Runs on the coordinator each tick.
func (e *Engine) checkSlowGrace(now time.Time) {
	if e.cfg.SlowPolicy != EvictSlow {
		return
	}
	for m, since := range e.slowSince {
		if e.slowEvict[m] || !e.view.Contains(m) {
			continue
		}
		if now.Sub(since) >= e.slowGrace() {
			e.slowEvict[m] = true
			e.rec(flightrec.EvSlowEvict, uint64(m), uint64(now.Sub(since).Milliseconds()))
		}
	}
}

// Suspects returns the currently suspected members of the view.
func (e *Engine) Suspects() []id.Node {
	var out []id.Node
	for _, m := range e.view.Members {
		if e.det.Suspected(m) {
			out = append(out, m)
		}
	}
	return out
}

// coordinator returns the node this engine currently believes coordinates
// view changes: the lowest member of the installed view that is not
// locally suspected. The local node is never suspected.
func (e *Engine) coordinator() id.Node {
	for _, m := range e.view.Members {
		if m == e.env.Self() || !e.det.Suspected(m) {
			return m
		}
	}
	return id.None
}

// isCoordinator reports whether this node should be driving view changes.
func (e *Engine) isCoordinator() bool {
	return e.view.ID != 0 && e.coordinator() == e.env.Self()
}

// Leave announces a voluntary departure to the coordinator. The caller
// should stop the node shortly after; delivery is best-effort and the
// failure detector covers the loss case.
func (e *Engine) Leave() {
	coord := e.coordinator()
	if coord == id.None || coord == e.env.Self() {
		// Coordinator leaving: evict self locally so the next
		// coordinator takes over via suspicion; nothing to send.
		return
	}
	e.env.Send(coord, &wire.Message{
		Kind:   wire.KindLeave,
		Group:  e.cfg.Group,
		Sender: e.env.Self(),
	})
}

// OnMessage dispatches membership traffic; all other kinds still feed the
// failure detector as liveness evidence.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	e.det.OnMessage(from, msg)
	// Hearing from a member slated for eviction cancels the provisional
	// sentence (a flush timeout is only evidence of failure, and the
	// node is demonstrably alive); voluntary leavers stay slated.
	if e.pendingEvict[from] && !e.left[from] {
		delete(e.pendingEvict, from)
	}
	if msg.Group != e.cfg.Group {
		return
	}
	switch msg.Kind {
	case wire.KindJoinReq:
		e.onJoinReq(msg.Sender, msg)
	case wire.KindViewPropose:
		e.onPropose(from, msg)
	case wire.KindFlushOK:
		e.onFlushOK(from, msg)
	case wire.KindViewCommit:
		e.onCommit(msg)
	case wire.KindJoinAck:
		if e.cfg.OnState != nil && msg.View >= e.view.ID {
			e.cfg.OnState(e.view, msg.Body)
		}
	case wire.KindLeave:
		e.onLeave(msg.Sender)
	case wire.KindHeartbeat:
		e.maybeEject(from)
	}
}

// OnTick drives join retries, bootstrap, proposal generation and proposal
// timeouts.
func (e *Engine) OnTick(now time.Time) {
	e.det.OnTick(now)
	if e.evicted {
		return
	}

	// Bootstrap: no contact, no view -> singleton group.
	if e.view.ID == 0 && e.cfg.Contact == id.None && !e.joining {
		e.install(NewView(1, []id.Node{e.env.Self()}))
		return
	}

	// A demoted coordinator — it proposed a view, then a lower-ranked
	// live member reappeared and took the role back — folds its orphaned
	// proposal into accepted-state so the stranded-flush recovery below
	// applies to it like to any other member. Without this the node stays
	// frozen forever: its multicast engine froze when the proposal
	// flushed, and only a committed view lifts the freeze.
	if e.proposal != nil && !e.isCoordinator() {
		if e.proposal.view.ID > e.view.ID {
			e.accepted = e.proposal.view
			e.acceptedFrom = e.env.Self()
		}
		e.proposal = nil
	}

	// A member holding an accepted-but-uncommitted proposal re-flushes
	// and re-acknowledges periodically: the flush retransmissions, the
	// FlushOK and the ViewCommit are all best-effort datagrams, and a
	// lost one must not strand the view change or the coordinator's
	// flush-convergence gate. The re-ack also goes to the current
	// coordinator when that is a different node — if the original
	// proposer died, the surviving coordinator learns from the ack's
	// future view number that a view change was abandoned midway and
	// must be re-driven (see onFlushOK).
	if e.accepted.ID > e.view.ID && e.acceptedFrom != id.None &&
		now.Sub(e.lastReflush) >= e.cfg.JoinRetry {
		e.lastReflush = now
		e.flushFor(e.accepted)
		if e.acceptedFrom != e.env.Self() {
			e.sendFlushOK(e.acceptedFrom, e.accepted.ID)
		}
		if coord := e.coordinator(); coord != id.None &&
			coord != e.acceptedFrom && coord != e.env.Self() {
			e.sendFlushOK(coord, e.accepted.ID)
		}
	}

	// Joining: retry the join request under jittered exponential
	// backoff, up to the attempt cap.
	if e.joining {
		e.tickJoin(now)
		return
	}

	if !e.isCoordinator() {
		return
	}
	e.expirePending(now)
	e.checkSlowGrace(now)

	if e.proposal != nil {
		// The coordinator re-sends the proposal to members yet to ack,
		// re-flushes like any member while its proposal is out, and
		// re-evaluates the gate against its own fresh state.
		if now.Sub(e.lastReflush) >= e.cfg.JoinRetry {
			e.lastReflush = now
			e.sendProposal(e.proposal)
			e.flushFor(e.proposal.view)
			e.maybeCommit()
		}
		if e.proposal != nil {
			e.checkProposal(now)
		}
		return
	}
	if len(e.pendingJoin) > 0 || e.anyEvictionPending() {
		e.propose(now)
	}
}

// tickJoin sends the next join request when its backoff has elapsed, or
// latches terminal failure at the attempt cap.
func (e *Engine) tickJoin(now time.Time) {
	if e.joinFailed || now.Before(e.nextJoin) {
		return
	}
	if e.cfg.JoinAttempts > 0 && e.joinAttempt >= e.cfg.JoinAttempts {
		e.joinFailed = true
		e.rec(flightrec.EvJoinFail, uint64(e.joinAttempt), 0)
		if e.cfg.OnJoinFailed != nil {
			e.cfg.OnJoinFailed(ErrJoinUnreachable)
		}
		return
	}
	e.joinAttempt++
	backoff := e.joinBackoff(e.joinAttempt)
	e.nextJoin = now.Add(backoff)
	e.mJoinAttempts.Inc()
	e.mJoinBackoff.Observe(float64(backoff.Milliseconds()))
	e.rec(flightrec.EvJoinRetry, uint64(e.joinAttempt), uint64(backoff.Milliseconds()))
	e.env.Send(e.cfg.Contact, &wire.Message{
		Kind:   wire.KindJoinReq,
		Group:  e.cfg.Group,
		Sender: e.env.Self(),
		Body:   wire.AppendJoinBody(nil, e.cfg.AdvertiseAddr),
	})
}

// joinBackoff returns the delay before the attempt after this one:
// exponential from JoinRetry, capped at JoinBackoffMax, jittered
// uniformly over [base/2, base) so a cohort of joiners desynchronizes
// (SRM's lesson: undamped recovery traffic becomes the overload).
func (e *Engine) joinBackoff(attempt int) time.Duration {
	base := e.cfg.JoinRetry
	for i := 1; i < attempt && base < e.cfg.JoinBackoffMax; i++ {
		base *= 2
	}
	if base > e.cfg.JoinBackoffMax {
		base = e.cfg.JoinBackoffMax
	}
	half := uint64(base / 2)
	if half == 0 {
		return base
	}
	return time.Duration(half + e.nextRand()%half)
}

// nextRand is a splitmix64 step: deterministic per node, no global
// randomness (the simulator's reproducibility rule).
func (e *Engine) nextRand() uint64 {
	e.rng += 0x9e3779b97f4a7c15
	z := e.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// anyEvictionPending reports whether any current member must go: sticky
// evictions (voluntary leaves, flush timeouts) or live suspicions.
func (e *Engine) anyEvictionPending() bool {
	for m := range e.pendingEvict {
		if e.view.Contains(m) {
			return true
		}
	}
	for m := range e.slowEvict {
		if e.view.Contains(m) {
			return true
		}
	}
	return len(e.Suspects()) > 0
}

// onJoinReq handles an admission request, forwarding it to the coordinator
// when this node is not it.
func (e *Engine) onJoinReq(joiner id.Node, msg *wire.Message) {
	if e.view.ID == 0 || joiner == id.None {
		return
	}
	addr, _ := wire.DecodeJoinBody(msg.Body)
	e.learnAddr(joiner, addr)
	if !e.isCoordinator() {
		if coord := e.coordinator(); coord != id.None && coord != e.env.Self() {
			e.env.Send(coord, &wire.Message{
				Kind:   wire.KindJoinReq,
				Group:  e.cfg.Group,
				Sender: joiner,
				Body:   msg.Body, // preserve the joiner's advertised address
			})
		}
		return
	}
	if e.view.Contains(joiner) {
		// Already admitted: the joiner keeps asking because it missed
		// the commit that let it in. Replay that commit.
		e.repairCommit(joiner, 0)
		return
	}
	now := e.env.Now()
	if q, ok := e.quarantine[joiner]; ok {
		// Parked. Readmit when the TTL has passed, or — for a joiner
		// parked purely for lack of a return address — as soon as one
		// exists (learned from this very datagram's source, its body, or
		// configuration). Otherwise the request is ignored: quarantine is
		// the damping that keeps a hopeless joiner from burning rounds.
		if now.Before(q.until) && !(q.noAddr && e.canReach(joiner)) {
			return
		}
		delete(e.quarantine, joiner)
		e.rec(flightrec.EvUnquarantine, uint64(joiner), 0)
	}
	if pj, ok := e.pendingJoin[joiner]; ok {
		if addr != "" {
			pj.addr = addr
		}
		return
	}
	if !e.canReach(joiner) {
		// Positively unreachable: no learned, advertised or configured
		// address. Park instead of occupying proposal state — a view
		// change toward a node no datagram can reach cannot complete.
		e.park(joiner, 0, true, now)
		return
	}
	e.pendingJoin[joiner] = &pendingJoinState{addr: addr, since: now}
	// A rejoining node is alive again, and its former departure is over.
	delete(e.pendingEvict, joiner)
	delete(e.left, joiner)
	delete(e.slowSince, joiner)
	delete(e.slowEvict, joiner)
}

// canReach reports whether this node has any route to a joiner: an
// address learned at this layer, or transport-level reachability. With
// neither signal available the joiner is assumed reachable (the
// historical behaviour for envs without a peer table).
func (e *Engine) canReach(j id.Node) bool {
	if e.addrs[j] != "" {
		return true
	}
	if e.reach != nil {
		return e.reach.CanReach(j)
	}
	return true
}

// learnAddr records a member's advertised address and forwards it to the
// driver (which teaches the transport peer table).
func (e *Engine) learnAddr(n id.Node, addr string) {
	if addr == "" || n == e.env.Self() || e.addrs[n] == addr {
		return
	}
	e.addrs[n] = addr
	if e.cfg.OnPeerAddr != nil {
		e.cfg.OnPeerAddr(n, addr)
	}
}

// park quarantines a joiner for the quarantine TTL, removing it from
// proposal state. rounds is recorded in the timeline for diagnosis.
func (e *Engine) park(j id.Node, rounds int, noAddr bool, now time.Time) {
	e.quarantine[j] = quarEntry{until: now.Add(e.quarantineTTL()), noAddr: noAddr}
	delete(e.pendingJoin, j)
	e.mQuarantined.Inc()
	e.rec(flightrec.EvQuarantine, uint64(j), uint64(rounds))
}

// quarantineTTL (also the pendingJoin TTL backstop) is long enough that
// several full proposal rounds fit inside it.
func (e *Engine) quarantineTTL() time.Duration { return 8 * e.cfg.FlushTimeout }

// expirePending parks admissions that have sat un-committable for the
// TTL — the backstop for joiners that keep a proposal from ever forming
// (for example while the coordinator is blocked on the primary-partition
// rule) and so never burn their round budget.
func (e *Engine) expirePending(now time.Time) {
	for j, pj := range e.pendingJoin {
		if now.Sub(pj.since) >= e.quarantineTTL() {
			e.park(j, pj.rounds, false, now)
		}
	}
}

// onLeave handles a voluntary departure announcement.
func (e *Engine) onLeave(leaver id.Node) {
	if !e.isCoordinator() || !e.view.Contains(leaver) {
		return
	}
	e.pendingEvict[leaver] = true
	e.left[leaver] = true
	delete(e.pendingJoin, leaver)
}

// propose starts a view change folding in pending joins and evictions.
// Evictions combine the sticky set (voluntary leaves, flush timeouts)
// with the detector's current suspicions, so a member suspected during a
// transient partition and heard from again is not evicted.
func (e *Engine) propose(now time.Time) {
	evict := make(map[id.Node]bool, len(e.pendingEvict)+len(e.slowEvict))
	for m := range e.pendingEvict {
		evict[m] = true
	}
	for m := range e.slowEvict {
		evict[m] = true
	}
	for _, m := range e.Suspects() {
		evict[m] = true
	}
	next := make([]id.Node, 0, e.view.Size()+len(e.pendingJoin))
	for _, m := range e.view.Members {
		if !evict[m] {
			next = append(next, m)
		}
	}
	// Sorted iteration: NewView sorts the member list anyway, but the
	// determinism rule says no observable output may depend on map
	// order, and this keeps the proposal construction auditable.
	joiners := make([]id.Node, 0, len(e.pendingJoin))
	for j := range e.pendingJoin {
		joiners = append(joiners, j)
	}
	sort.Slice(joiners, func(i, j int) bool { return joiners[i] < joiners[j] })
	next = append(next, joiners...)
	if e.cfg.PrimaryPartition && e.view.ID != 0 {
		// An accepted proposal this node never saw committed may have
		// been committed elsewhere, so the successor must be primary
		// with respect to it too, or two sides each extend a different
		// view.
		if !primaryOf(e.view, next) || (e.accepted.ID > e.view.ID && !primaryOf(e.accepted, next)) {
			// Minority side: block rather than split the brain.
			return
		}
	}
	// Number above every view this node proposed or accepted: a view ID
	// that may already be committed elsewhere must never be reused.
	vid := max(e.view.ID, e.highestSent, e.accepted.ID)
	proposed := NewView(vid+1, next)
	if !proposed.Contains(e.env.Self()) {
		// A coordinator never proposes itself away; its own departure
		// is handled by the next coordinator after it stops.
		proposed = NewView(proposed.ID, append(proposed.Members, e.env.Self()))
	}
	e.highestSent = proposed.ID
	e.mProposals.Inc()
	e.rec(flightrec.EvViewPropose, uint64(proposed.ID), uint64(len(proposed.Members)))
	e.proposal = &proposalState{
		view:     proposed,
		acks:     map[id.Node]bool{e.env.Self(): true},
		vectors:  make(map[id.Node]flushState),
		deadline: now.Add(e.cfg.FlushTimeout),
	}
	// The coordinator flushes its own traffic like any member.
	e.flushFor(proposed)
	e.sendProposal(e.proposal)
	e.maybeCommit()
}

// primaryOf reports whether next is the primary component of v: a strict
// majority of v's members, or exactly half of them provided it retains
// v's lowest member — the tie-break that keeps an even split (and the
// common two-member view losing one node) from wedging both sides.
func primaryOf(v View, next []id.Node) bool {
	kept := 0
	for _, m := range next {
		if v.Contains(m) {
			kept++
		}
	}
	return kept*2 > v.Size() || (kept*2 == v.Size() && slices.Contains(next, v.Members[0]))
}

// sendProposal (re)broadcasts an outstanding proposal to its members. The
// proposal datagram is best-effort like everything else, so the OnTick
// coordinator loop re-sends it periodically: a single lost propose must
// not burn the whole flush window and read as a member failure.
func (e *Engine) sendProposal(p *proposalState) {
	body := e.viewBody(p.view)
	for _, m := range p.view.Members {
		if m == e.env.Self() || p.acks[m] {
			continue
		}
		e.env.Send(m, &wire.Message{
			Kind:  wire.KindViewPropose,
			Group: e.cfg.Group,
			View:  p.view.ID,
			Body:  body,
		})
	}
}

// checkProposal re-sends or shrinks an outstanding proposal at deadline.
func (e *Engine) checkProposal(now time.Time) {
	p := e.proposal
	if now.Before(p.deadline) {
		return
	}
	// Members that failed to flush in time are treated as failed. The
	// eviction is counted when it commits (maybeCommit), not here: a
	// slated member heard from again before the next proposal is spared.
	// A silent joiner is different: it was never a member, so there is
	// nothing to evict — it burns one admission round, and past the
	// budget it is quarantined so it cannot churn proposals forever.
	for _, m := range p.view.Members {
		if p.acks[m] {
			continue
		}
		if e.view.Contains(m) {
			e.pendingEvict[m] = true
			continue
		}
		if pj, ok := e.pendingJoin[m]; ok {
			pj.rounds++
			if pj.rounds >= maxJoinRounds {
				e.park(m, pj.rounds, false, now)
			}
		}
	}
	e.proposal = nil
	e.propose(now)
}

// onPropose handles a proposal as a (possibly joining) member.
func (e *Engine) onPropose(from id.Node, msg *wire.Message) {
	body, err := wire.DecodeViewBody(msg.Body)
	if err != nil {
		return
	}
	e.learnAddrs(body)
	proposed := NewView(body.View, body.Members)
	if e.evicted || !proposed.Contains(e.env.Self()) {
		return // eviction is final: a stale proposal must not revive the node
	}
	if proposed.ID <= e.view.ID {
		return // stale proposal
	}
	if e.view.ID != 0 && !e.view.Contains(from) && !e.joining {
		return // proposals only come from members of our current view
	}
	if e.accepted.ID > e.view.ID && !proposed.Equal(e.accepted) && e.conflicts(from, proposed) {
		// The accepted proposal may have been committed: refuse, and
		// answer with an ack for it, which tells the proposer to number
		// above it (see onFlushOK).
		e.sendFlushOK(from, e.accepted.ID)
		return
	}
	if !proposed.Equal(e.accepted) {
		e.accepted = proposed
		e.lastReflush = e.env.Now()
		e.flushFor(proposed)
	}
	e.acceptedFrom = from
	e.sendFlushOK(from, proposed.ID)
}

// conflicts reports whether proposal q, from proposer from, may not
// follow the accepted but uncommitted proposal, which its own proposer may
// have committed: q reuses a view number at or below it, or — under the
// primary-partition rule — q is not the primary component of it. A
// proposer superseding its own proposal with a higher number is never in
// conflict: it commits a proposal only once, and it abandoned that one.
func (e *Engine) conflicts(from id.Node, q View) bool {
	if from == e.acceptedFrom && q.ID > e.accepted.ID {
		return false
	}
	return q.ID <= e.accepted.ID || (e.cfg.PrimaryPartition && !primaryOf(e.accepted, q.Members))
}

// sendFlushOK acknowledges a proposal, reporting the view being flushed
// from (Seq), whose proposal it acknowledges (Sender) and, when the
// stability hook is wired, the local delivery state the coordinator's
// flush-convergence gate compares.
func (e *Engine) sendFlushOK(to id.Node, vid id.View) {
	msg := &wire.Message{
		Kind:   wire.KindFlushOK,
		Group:  e.cfg.Group,
		View:   vid,
		Seq:    uint64(e.view.ID),
		Sender: e.acceptedFrom,
	}
	if e.cfg.StabilityVector != nil {
		acks, slots := e.cfg.StabilityVector()
		msg.Body = wire.AppendAckVector(nil, acks)
		msg.Aux = slots
	}
	e.env.Send(to, msg)
}

// onFlushOK records a member's flush acknowledgment.
func (e *Engine) onFlushOK(from id.Node, msg *wire.Message) {
	p := e.proposal
	// An ack names the proposer it answers; one for another proposer's
	// view of the same number must not count toward ours.
	foreign := msg.Sender != e.env.Self()
	if p == nil || foreign || msg.View != p.view.ID || !p.view.Contains(from) {
		// A re-ack for a view this node already committed means the
		// member missed the commit datagram: replay it.
		if msg.View <= e.view.ID && e.view.Contains(from) {
			e.repairCommit(from, id.View(msg.Seq))
			return
		}
		// An ack for a FUTURE view reaching the coordinator means a
		// member is stranded in a view change whose proposer died before
		// committing. The member froze its multicast engine when it
		// flushed, so it stays wedged until some view commits: re-drive
		// the change under a view number above the abandoned one.
		// The same holds when our own pending proposal numbers at or
		// below it: that number may be taken, so propose above it.
		if e.isCoordinator() && (p == nil || p.view.ID <= msg.View) && msg.View > e.view.ID &&
			e.view.Contains(from) {
			if e.highestSent < msg.View {
				e.highestSent = msg.View
			}
			e.proposal = nil
			e.propose(e.env.Now())
		}
		return
	}
	p.acks[from] = true
	if e.cfg.StabilityVector != nil {
		st := flushState{
			base:  id.View(msg.Seq),
			slots: msg.Aux,
			acks:  make(map[id.Node]uint64),
		}
		if acks, _, err := wire.DecodeAckVector(msg.Body); err == nil {
			for _, a := range acks {
				st.acks[a.Sender] = a.Seq
			}
		}
		p.vectors[from] = st
		// A member flushing from an older view than ours missed one or
		// more commits; step it forward so the vectors it reports are
		// comparable to everyone else's.
		if st.base < e.view.ID {
			e.repairCommit(from, st.base)
		}
	}
	e.maybeCommit()
}

// repairCommit replays a missed ViewCommit to a node stuck in view base:
// the smallest committed view newer than base that contains the node, so
// the straggler steps through the same view sequence every other member
// installed (replaying its per-view buffered traffic along the way).
func (e *Engine) repairCommit(to id.Node, base id.View) {
	if e.view.ID == 0 || base >= e.view.ID {
		return
	}
	var best View
	for _, v := range e.committedLog {
		if v.ID > base && v.Contains(to) && (best.ID == 0 || v.ID < best.ID) {
			best = v
		}
	}
	if best.ID == 0 {
		return
	}
	body := e.viewBody(best)
	e.env.Send(to, &wire.Message{
		Kind:  wire.KindViewCommit,
		Group: e.cfg.Group,
		View:  best.ID,
		Body:  body,
	})
}

// viewBody encodes a view with the member→address annotations this node
// can vouch for: its own advertised address plus everything learned from
// join requests and earlier view bodies. Members with no known address
// get an empty slot; a wholly unknown map encodes as the zero-count
// section.
func (e *Engine) viewBody(v View) []byte {
	addrs := make([]string, len(v.Members))
	any := false
	for i, m := range v.Members {
		a := e.addrs[m]
		if m == e.env.Self() && e.cfg.AdvertiseAddr != "" {
			a = e.cfg.AdvertiseAddr
		}
		if a != "" {
			any = true
		}
		addrs[i] = a
	}
	if !any {
		addrs = nil
	}
	return wire.AppendViewBody(nil, wire.ViewBody{View: v.ID, Members: v.Members, Addrs: addrs})
}

// learnAddrs absorbs the address annotations of a received view body.
func (e *Engine) learnAddrs(body wire.ViewBody) {
	if len(body.Addrs) != len(body.Members) {
		return
	}
	for i, m := range body.Members {
		e.learnAddr(m, body.Addrs[i])
	}
}

// maybeEject tells a non-member that keeps heartbeating at us which view
// dropped it. A member that misses its own eviction commit — crashed or
// partitioned away while it was sent — would otherwise stay in its stale
// view forever, heartbeating into a group that no longer lists it.
func (e *Engine) maybeEject(from id.Node) {
	if !e.isCoordinator() || e.view.Contains(from) || e.pendingJoin[from] != nil {
		return
	}
	now := e.env.Now()
	if last, ok := e.lastEject[from]; ok && now.Sub(last) < e.cfg.FlushTimeout {
		return
	}
	e.lastEject[from] = now
	body := e.viewBody(e.view)
	e.env.Send(from, &wire.Message{
		Kind:  wire.KindViewCommit,
		Group: e.cfg.Group,
		View:  e.view.ID,
		Body:  body,
	})
}

// maybeCommit installs and broadcasts the proposal once fully acked.
func (e *Engine) maybeCommit() {
	p := e.proposal
	if p == nil {
		return
	}
	for _, m := range p.view.Members {
		if !p.acks[m] {
			return
		}
	}
	if e.cfg.StabilityVector != nil && !e.flushConverged(p) {
		return
	}
	e.proposal = nil
	// Account evictions at the moment they become final: old-view members
	// the committed view excludes, minus voluntary leavers. Counting here
	// (not at suspicion or flush-timeout time) covers every eviction path
	// exactly once on the coordinator.
	for _, m := range e.view.Members {
		if !p.view.Contains(m) && !e.left[m] {
			e.mEvictions.Inc()
			if e.slowEvict[m] {
				e.mSlowEvicted.Inc()
			}
			e.rec(flightrec.EvEvict, uint64(m), uint64(p.view.ID))
		}
	}
	body := e.viewBody(p.view)
	// Notify evicted members too, so they learn their fate.
	notified := map[id.Node]bool{e.env.Self(): true}
	for _, m := range p.view.Members {
		if notified[m] {
			continue
		}
		notified[m] = true
		e.env.Send(m, &wire.Message{
			Kind:  wire.KindViewCommit,
			Group: e.cfg.Group,
			View:  p.view.ID,
			Body:  body,
		})
	}
	for _, m := range e.view.Members {
		if notified[m] || !e.pendingEvict[m] {
			continue
		}
		notified[m] = true
		e.env.Send(m, &wire.Message{
			Kind:  wire.KindViewCommit,
			Group: e.cfg.Group,
			View:  p.view.ID,
			Body:  body,
		})
	}
	// Clear the bookkeeping satisfied by this commit.
	for j := range e.pendingJoin {
		if p.view.Contains(j) {
			delete(e.pendingJoin, j)
		}
	}
	for m := range e.pendingEvict {
		if !p.view.Contains(m) {
			delete(e.pendingEvict, m)
			delete(e.left, m)
		}
	}
	for m := range e.slowEvict {
		if !p.view.Contains(m) {
			delete(e.slowEvict, m)
			delete(e.slowSince, m)
		}
	}
	// Application state transfer to the members this commit admitted.
	if e.cfg.Snapshot != nil {
		var joined []id.Node
		for _, m := range p.view.Members {
			if m != e.env.Self() && !e.view.Contains(m) {
				joined = append(joined, m)
			}
		}
		if len(joined) > 0 {
			state := e.cfg.Snapshot()
			for _, m := range joined {
				e.env.Send(m, &wire.Message{
					Kind:  wire.KindJoinAck,
					Group: e.cfg.Group,
					View:  p.view.ID,
					Body:  state,
				})
			}
		}
	}
	e.install(p.view)
}

// flushConverged reports whether every survivor of the current view that
// is carried into the proposal has (a) flushed from this same view and
// (b) a delivery state matching the group-wide maximum: every message any
// survivor delivered has reached all of them, and all have delivered the
// same totally-ordered slot prefix. Committing earlier could install a
// view in which one survivor delivered a message another never saw — the
// virtual-synchrony agreement violation the flush exists to prevent.
// Joiners are skipped: they carry no old-view state. Convergence is
// guaranteed to make progress because survivors re-flush and re-ack
// periodically until the commit arrives, and a survivor that stops
// responding is evicted from the proposal at the flush deadline.
func (e *Engine) flushConverged(p *proposalState) bool {
	rows := make(map[id.Node]map[id.Node]uint64)
	slots := make(map[id.Node]uint64)
	for _, m := range p.view.Members {
		if !e.view.Contains(m) {
			continue // joiner: no old-view state to reconcile
		}
		if m == e.env.Self() {
			selfAcks, selfSlots := e.cfg.StabilityVector()
			row := make(map[id.Node]uint64, len(selfAcks))
			for _, a := range selfAcks {
				row[a.Sender] = a.Seq
			}
			rows[m], slots[m] = row, selfSlots
			continue
		}
		st, ok := p.vectors[m]
		if !ok || st.base != e.view.ID {
			return false // no vector yet, or flushed from a stale view
		}
		rows[m], slots[m] = st.acks, st.slots
	}
	max := make(map[id.Node]uint64)
	for _, row := range rows {
		for sender, n := range row {
			if n > max[sender] {
				max[sender] = n
			}
		}
	}
	for _, row := range rows {
		for sender, n := range max {
			if row[sender] < n {
				return false
			}
		}
	}
	var want uint64
	first := true
	for _, n := range slots {
		if first {
			want, first = n, false
		} else if n != want {
			return false
		}
	}
	return true
}

// onCommit installs a committed view as a member.
func (e *Engine) onCommit(msg *wire.Message) {
	body, err := wire.DecodeViewBody(msg.Body)
	if err != nil {
		return
	}
	e.learnAddrs(body)
	v := NewView(body.View, body.Members)
	if e.evicted || v.ID <= e.view.ID {
		// An evicted node's view is empty, so without the first test a
		// replayed commit of a view it already left would reinstall it and
		// restart its sequence numbers in that view.
		return
	}
	if !v.Contains(e.env.Self()) {
		if e.view.ID != 0 {
			e.mEvictions.Inc()
			e.rec(flightrec.EvEvict, uint64(e.env.Self()), uint64(v.ID))
			e.evicted = true
			e.view = View{}
			e.det.SetPeers(nil)
			if e.cfg.OnEvicted != nil {
				e.cfg.OnEvicted(v)
			}
		}
		return
	}
	e.install(v)
}

// rec stamps one flight-recorder event; free without a recorder.
func (e *Engine) rec(code flightrec.Code, a, b uint64) {
	if e.cfg.Flight != nil {
		e.cfg.Flight.Record(uint64(e.env.Self()), e.env.Now().UnixMilli(), code, a, b)
	}
}

// install makes v the current view and notifies subscribers.
func (e *Engine) install(v View) {
	e.mViews.Inc()
	e.rec(flightrec.EvViewInstall, uint64(v.ID), uint64(v.Size()))
	e.view = v
	e.joining = false
	e.joinAttempt = 0
	e.joinFailed = false
	e.nextJoin = time.Time{}
	e.accepted = View{}
	e.acceptedFrom = id.None
	// The address map tracks only nodes that could still matter: current
	// members and in-flight joiners.
	for n := range e.addrs {
		if !v.Contains(n) && e.pendingJoin[n] == nil {
			delete(e.addrs, n)
		}
	}
	// Slow-receiver state only makes sense for current members.
	for n := range e.slowSince {
		if !v.Contains(n) {
			delete(e.slowSince, n)
			delete(e.slowEvict, n)
		}
	}
	e.committedLog = append(e.committedLog, v)
	if len(e.committedLog) > 8 {
		e.committedLog = e.committedLog[len(e.committedLog)-8:]
	}
	e.det.SetPeers(v.Members)
	if e.cfg.OnView != nil {
		e.cfg.OnView(v)
	}
}

// flushFor invokes the flush hook for a proposed view.
func (e *Engine) flushFor(proposed View) {
	if e.cfg.OnFlush != nil {
		e.cfg.OnFlush(proposed)
	}
}
