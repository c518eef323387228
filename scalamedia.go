// Package scalamedia is a Go implementation of the scalable architecture
// for reliable distributed multimedia applications described by Panzieri
// and Roccetti (ICDCS 1994; UBLCS-93-23): a layered communication
// infrastructure combining
//
//   - reliable group multicast with selectable ordering (unordered, FIFO,
//     causal, total) over unreliable datagrams,
//   - group membership with failure detection and flush-based view
//     changes (approximate virtual synchrony),
//   - a hierarchical cluster organization for large groups,
//   - a real-time media channel with jitter-adaptive playout and
//     inter-media (lip-sync) synchronization, and
//   - QoS flow specifications with token-bucket policing and admission
//     control.
//
// This package is the live-deployment facade: a Node runs the whole stack
// over real UDP (or any transport.Endpoint): inbound UDP traffic runs on
// the socket's reading goroutine, ticks on one event-loop goroutine, and
// each API call on its caller's goroutine, all serialized by one lock.
// The same protocol engines run deterministically under virtual
// time in the discrete-event simulator (internal/netsim), which is how
// the repository reproduces the paper's evaluation; see DESIGN.md and
// EXPERIMENTS.md.
//
// # Quick start
//
//	first, _ := scalamedia.Start(scalamedia.Config{
//		Self: 1, ListenAddr: "127.0.0.1:7001", Group: 1,
//	})
//	second, _ := scalamedia.Start(scalamedia.Config{
//		Self: 2, ListenAddr: "127.0.0.1:7002", Group: 1, Contact: 1,
//		Peers:   map[scalamedia.NodeID]string{1: "127.0.0.1:7001"},
//		OnEvent: func(ev scalamedia.Event) { fmt.Println(ev.Kind) },
//	})
//	// first learns second's return address from the join traffic — only
//	// the contact's address is ever configured.
//	// ... wait for the view to include both, then:
//	first.Send([]byte("hello, group"))
package scalamedia

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/member"
	"scalamedia/internal/msync"
	"scalamedia/internal/noderun"
	"scalamedia/internal/proto"
	"scalamedia/internal/qos"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/rtx"
	"scalamedia/internal/session"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// Re-exported identifier and protocol types. The aliases make the public
// API self-contained: users never import internal packages.
type (
	// NodeID identifies a host process.
	NodeID = id.Node
	// GroupID identifies a process group.
	GroupID = id.Group
	// StreamID identifies a media stream.
	StreamID = id.Stream
	// View is an installed membership configuration.
	View = member.View
	// Ordering selects the multicast delivery discipline.
	Ordering = rmcast.Ordering
	// Event is a session notification.
	Event = session.Event
	// EventKind discriminates session notifications.
	EventKind = session.EventKind
	// Announcement is a stream directory entry.
	Announcement = session.Announcement
	// StreamSpec describes a media stream.
	StreamSpec = media.StreamSpec
	// Frame is one media data unit.
	Frame = media.Frame
	// FlowSpec is a QoS traffic contract.
	FlowSpec = qos.FlowSpec
	// PlayoutMode selects fixed or adaptive playout buffering.
	PlayoutMode = rtx.PlayoutMode
	// MediaStats summarizes a media receiver.
	MediaStats = rtx.Stats
	// Advice is a media sender's rate-adaptation recommendation derived
	// from receiver reports.
	Advice = rtx.Advice
	// QualityReport is one receiver's quality feedback.
	QualityReport = rtx.Report
	// SlowPolicy selects how the session treats a member that is alive
	// but not draining multicast traffic (see ThrottleToSlowest and
	// EvictSlow).
	SlowPolicy = member.SlowPolicy
)

// Re-exported constants.
const (
	// Unordered delivers multicasts on first receipt.
	Unordered = rmcast.Unordered
	// FIFO delivers each sender's multicasts in send order.
	FIFO = rmcast.FIFO
	// Causal delivers multicasts respecting potential causality.
	Causal = rmcast.Causal
	// Total delivers multicasts in one agreed order everywhere.
	Total = rmcast.Total

	// FixedDelay plays media at capture time plus a constant delay.
	FixedDelay = rtx.FixedDelay
	// Adaptive adjusts the playout delay to measured jitter.
	Adaptive = rtx.Adaptive

	// Hold, Decrease and Increase re-export the rate-adaptation advice.
	Hold     = rtx.Hold
	Decrease = rtx.Decrease
	Increase = rtx.Increase

	// ParticipantJoined et al. re-export the session event kinds.
	ParticipantJoined = session.ParticipantJoined
	ParticipantLeft   = session.ParticipantLeft
	StreamAnnounced   = session.StreamAnnounced
	StreamWithdrawn   = session.StreamWithdrawn
	MessageReceived   = session.MessageReceived
	SelfEvicted       = session.SelfEvicted
	// JoinFailed reports that the join attempt cap was exhausted; see
	// Config.JoinAttempts.
	JoinFailed = session.JoinFailed
	// ObjectReceived reports a completed bulk-object transfer (see
	// Node.Publish); Event.Object names it and Event.Payload holds its
	// bytes.
	ObjectReceived = session.ObjectReceived
	// ObjectProgress reports bulk-transfer advancement: Event.Done of
	// Event.Total generations decoded.
	ObjectProgress = session.ObjectProgress
	// MemberSlow reports a participant crossing the slow threshold
	// (Event.Slow, Event.Lag); emitted only when Config.FlowWindow,
	// Config.SlowAfter or an EvictSlow policy enables slow tracking.
	MemberSlow = session.MemberSlow

	// ThrottleToSlowest (the default slow policy) never evicts for
	// slowness: the flow window backpressures senders to the laggard's
	// drain rate instead.
	ThrottleToSlowest = member.ThrottleToSlowest
	// EvictSlow removes a member still flagged slow after the
	// Config.SlowGrace budget, trading its membership for restored
	// group throughput.
	EvictSlow = member.EvictSlow
)

// Errors.
var (
	// ErrClosed reports an operation on a closed node.
	ErrClosed = errors.New("scalamedia: node closed")
	// ErrNotMember reports a session operation on a node the membership
	// service has evicted; the node must be closed and replaced with a
	// fresh one to rejoin.
	ErrNotMember = errors.New("scalamedia: node evicted from session")
	// ErrBackpressure reports a non-blocking send rejected because the
	// flow window (Config.FlowWindow) is full, or because a view change
	// already holds 4096 sends for the next view; returned by TrySend.
	// Send and SendContext block instead. Test with errors.Is.
	ErrBackpressure = rmcast.ErrBackpressure
	// ErrNoCapacity reports a media stream rejected by QoS admission.
	ErrNoCapacity = qos.ErrOverCommitted
	// ErrJoinUnreachable is the join-failure cause surfaced when
	// Config.JoinAttempts is exhausted without admission.
	ErrJoinUnreachable = member.ErrJoinUnreachable
)

// Config parameterizes a Node.
type Config struct {
	// Self is this node's cluster-unique ID. Required, nonzero.
	Self NodeID
	// ListenAddr is the UDP listen address ("127.0.0.1:0" picks a
	// port). Ignored when Endpoint is set.
	ListenAddr string
	// Endpoint overrides the transport (e.g. a transport.Fabric
	// endpoint for in-process demos). When nil, a UDP endpoint is
	// opened on ListenAddr.
	Endpoint transport.Endpoint
	// Group is the session group to participate in.
	Group GroupID
	// Contact is an existing member to join through; zero bootstraps a
	// new session.
	Contact NodeID
	// Peers maps node IDs to UDP addresses (UDP transport only). More
	// peers can be added later with AddPeer. Since the membership layer
	// learns return addresses from traffic and redistributes them in
	// view changes, a joiner normally needs only the contact's entry
	// here; everything else is self-configuring.
	Peers map[NodeID]string
	// AdvertiseAddr is the address this node asks the group to reach it
	// at, carried in its join request and redistributed in view changes.
	// Empty auto-derives from the bound UDP socket when its IP is
	// concrete; a node listening on a wildcard address that sits behind
	// NAT or multiple interfaces should set it explicitly.
	AdvertiseAddr string
	// JoinAttempts caps join retries before the node gives up and emits
	// a JoinFailed event (cause ErrJoinUnreachable). Zero retries
	// forever.
	JoinAttempts int
	// JoinBackoffMax caps the jittered exponential join retry backoff;
	// zero takes the membership default (16× the join retry base).
	JoinBackoffMax time.Duration
	// Ordering is the session multicast discipline; defaults to Causal.
	Ordering Ordering
	// PrimaryPartition applies the membership majority rule: a view
	// only installs on the side holding a strict majority of the old
	// view (an even split is won by the side holding the old view's
	// lowest member). A minority partition blocks instead of splitting
	// the group's brain.
	PrimaryPartition bool
	// AutoHier routes session multicasts through a self-organizing
	// hierarchical overlay: nodes measure peer RTTs, gravitate into
	// latency-near clusters under elected coordinators, and reshape the
	// tree as members join, leave or crash. Recovery and stability
	// traffic then stays within a cluster (or the small coordinator
	// set), so per-node control overhead scales with cluster size rather
	// than session size. Delivery becomes FIFO per sender regardless of
	// Ordering, and groups Group+1 through Group+3 are claimed for the
	// overlay's channels — leave them free of other sessions.
	AutoHier bool
	// HierFanOut bounds overlay cluster sizes (and every coordinator's
	// re-multicast fan-out) under AutoHier; zero takes the default (8).
	HierFanOut int
	// Tick overrides the protocol tick cadence.
	Tick time.Duration
	// MediaCapacity is the QoS budget for outgoing media in bytes per
	// second; zero disables admission control.
	MediaCapacity float64

	// FlowWindow bounds this node's unstable multicast history in
	// messages — the sender-side stability window. With the window full,
	// Send and SendContext block until stability frees slots and TrySend
	// returns ErrBackpressure. Zero disables flow control (unbounded
	// history, the historical behaviour). Flow control applies to the
	// flat multicast path; the AutoHier overlay bypasses it.
	FlowWindow int
	// FlowWindowBytes additionally bounds the window in payload bytes;
	// zero means no byte bound.
	FlowWindowBytes int
	// SlowAfter is the multicast ack lag (messages) past which a member
	// is flagged slow and a MemberSlow event fires; zero derives a
	// default from FlowWindow (equal to it, or 64 without one).
	SlowAfter int
	// SlowPolicy selects what happens to flagged members:
	// ThrottleToSlowest (default) paces senders via the flow window and
	// never evicts for slowness; EvictSlow removes a member still slow
	// after SlowGrace.
	SlowPolicy SlowPolicy
	// SlowGrace is the catch-up budget a slow member gets before
	// EvictSlow slates it; zero takes the default (2s).
	SlowGrace time.Duration
	// OnDegrade, when set, observes graceful media degradation: it is
	// called with the stream and shed byte count each time a media
	// sender sheds a droppable frame under overload. It runs serialized
	// with every other activation of the node, on the shedding
	// MediaSender.Send call's goroutine; must not block.
	OnDegrade func(StreamID, int)
	// OnEvent receives session notifications, serialized with every
	// other activation of the node: inbound traffic runs on the UDP
	// socket's reading goroutine, and the sender's own delivery inside
	// the Send call. Do not block in it, and do not call Node methods
	// from it directly, Close included (hand work to another goroutine
	// instead): they take the same non-reentrant lock, or wait for the
	// goroutine running the callback, and would deadlock.
	OnEvent func(Event)

	// Failure-detection timing (zero = defaults).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration

	// UDPBatch caps the datagrams coalesced into one recvmmsg/sendmmsg
	// syscall on the UDP transport (zero means the transport default;
	// one disables batched syscalls and forces the portable
	// single-datagram path). Ignored when Endpoint is set.
	UDPBatch int

	// MetricsAddr, when nonempty, serves the HTTP observability
	// endpoint on that address (":0" picks a port; read it back with
	// MetricsAddr). See ServeMetrics for the routes.
	MetricsAddr string
	// FlightRecorderSize overrides the flight-recorder ring capacity
	// (rounded up to a power of two; zero means the 4096 default).
	FlightRecorderSize int
}

// Node is one live participant: a transport endpoint, an event loop and
// the full protocol stack. All exported methods are safe for concurrent
// use; each runs on its caller's goroutine as one activation of the
// node, serialized with the loop's.
type Node struct {
	cfg    Config
	ep     transport.Endpoint
	udp    *transport.UDPEndpoint // nil when Endpoint was supplied
	runner *noderun.Runner
	sess   *session.Engine
	mux    *proto.Mux
	admit  *qos.Controller
	reg    *stats.Registry
	flight *flightrec.Recorder

	// Flow-control wait plumbing: an activation signals flowCh (cap 1,
	// non-blocking send) when a full flow window drains, waking one
	// blocked SendContext; hFlowBlocked accounts the time senders spent
	// blocked and mFramesShed the media frames shed under overload.
	flowCh       chan struct{}
	hFlowBlocked *stats.Histogram
	mFramesShed  *stats.Counter

	mu      sync.Mutex
	closed  bool
	msrv    *metricsServer
	senders []*MediaSender
	waiters []*viewWaiter
}

// viewWaiter pairs a view predicate with its completion signal.
type viewWaiter struct {
	pred func(View) bool
	ch   chan struct{}
}

// Start opens the transport and launches the node.
func Start(cfg Config) (*Node, error) {
	if cfg.Self == 0 {
		return nil, errors.New("scalamedia: Config.Self must be nonzero")
	}
	n := &Node{
		cfg:    cfg,
		reg:    stats.NewRegistry(),
		flight: flightrec.New(cfg.FlightRecorderSize),
		flowCh: make(chan struct{}, 1),
	}
	n.hFlowBlocked = n.reg.Histogram("rmcast.flow_blocked_ms")
	n.mFramesShed = n.reg.Counter("media.frames_shed")
	if cfg.Endpoint != nil {
		n.ep = cfg.Endpoint
	} else {
		addr := cfg.ListenAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var uopts []transport.UDPOption
		if cfg.UDPBatch > 0 {
			uopts = append(uopts, transport.WithBatchSize(cfg.UDPBatch))
		}
		udp, err := transport.ListenUDP(cfg.Self, addr, uopts...)
		if err != nil {
			return nil, fmt.Errorf("open transport: %w", err)
		}
		for peer, paddr := range cfg.Peers {
			if err := udp.AddPeer(peer, paddr); err != nil {
				udp.Close()
				return nil, fmt.Errorf("peer %s: %w", peer, err)
			}
		}
		n.udp = udp
		n.ep = udp
	}
	if cfg.MediaCapacity > 0 {
		n.admit = qos.NewController(cfg.MediaCapacity)
		if cfg.OnDegrade != nil {
			n.admit.SetOnDegrade(cfg.OnDegrade)
		}
	}
	if inst, ok := n.ep.(transport.Instrumented); ok {
		inst.SetMetrics(n.reg)
	}

	// Advertise the bound socket address when the caller did not choose
	// one, so the membership layer's address exchange works without
	// configuration. A wildcard listen IP is not advertisable — peers
	// would learn 0.0.0.0 — so only concrete IPs auto-derive.
	advertise := cfg.AdvertiseAddr
	if advertise == "" && n.udp != nil {
		if la := n.udp.LocalAddr(); la != nil && len(la.IP) > 0 && !la.IP.IsUnspecified() {
			advertise = la.String()
		}
	}
	// Learned member addresses teach the UDP peer table, so admitted
	// members can reach each other without static -peer configuration.
	var onPeerAddr func(NodeID, string)
	if n.udp != nil {
		udp := n.udp
		onPeerAddr = func(peer NodeID, addr string) { _ = udp.LearnPeer(peer, addr) }
	}

	var opts []noderun.Option
	if cfg.Tick > 0 {
		opts = append(opts, noderun.WithTick(cfg.Tick))
	}
	n.runner = noderun.Start(n.ep, func(env proto.Env) proto.Handler {
		n.sess = session.New(env, session.Config{
			Config: core.Config{
				Group:            cfg.Group,
				Contact:          cfg.Contact,
				Ordering:         cfg.Ordering,
				PrimaryPartition: cfg.PrimaryPartition,
				AutoHier:         cfg.AutoHier,
				HierFanOut:       cfg.HierFanOut,
				HeartbeatEvery:   cfg.HeartbeatEvery,
				SuspectAfter:     cfg.SuspectAfter,
				JoinAttempts:     cfg.JoinAttempts,
				JoinBackoffMax:   cfg.JoinBackoffMax,
				AdvertiseAddr:    advertise,
				OnPeerAddr:       onPeerAddr,
				FlowWindow:       cfg.FlowWindow,
				FlowWindowBytes:  cfg.FlowWindowBytes,
				SlowAfter:        cfg.SlowAfter,
				SlowPolicy:       cfg.SlowPolicy,
				SlowGrace:        cfg.SlowGrace,
				OnFlowOpen:       n.flowOpened,
				Metrics:          n.reg,
				Flight:           n.flight,
			},
			OnEvent: n.onEvent,
		})
		n.mux = proto.NewMux(n.sess)
		return n.mux
	}, opts...)
	expvarRegister(n)
	if cfg.MetricsAddr != "" {
		if _, err := n.ServeMetrics(cfg.MetricsAddr); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// onEvent tracks views for media sender peer lists, wakes view waiters,
// and forwards to the application.
func (n *Node) onEvent(ev Event) {
	if ev.Kind == session.ParticipantJoined || ev.Kind == session.ParticipantLeft ||
		ev.Kind == session.SelfEvicted {
		if ev.Kind != session.SelfEvicted {
			n.mu.Lock()
			senders := append([]*MediaSender(nil), n.senders...)
			n.mu.Unlock()
			for _, ms := range senders {
				ms.sender.SetPeers(ev.View.Members)
			}
		}
		n.wakeWaiters(ev.View)
	}
	if n.cfg.OnEvent != nil {
		n.cfg.OnEvent(ev)
	}
}

// wakeWaiters signals every registered waiter whose predicate the view
// satisfies.
func (n *Node) wakeWaiters(v View) {
	n.mu.Lock()
	kept := n.waiters[:0]
	var woken []*viewWaiter
	for _, w := range n.waiters {
		if w.pred(v) {
			woken = append(woken, w)
		} else {
			kept = append(kept, w)
		}
	}
	n.waiters = kept
	n.mu.Unlock()
	for _, w := range woken {
		close(w.ch)
	}
}

// removeWaiter unregisters w if it is still pending.
func (n *Node) removeWaiter(w *viewWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, x := range n.waiters {
		if x == w {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			return
		}
	}
}

// WaitView blocks until the membership view satisfies pred or timeout
// elapses, and reports whether the predicate was met. The predicate is
// evaluated against the current view immediately and then on every
// membership change, so callers wait on events instead of polling.
// WaitView must not be called from the OnEvent callback (it would
// deadlock the node); pred may be called from multiple goroutines
// and must not block.
func (n *Node) WaitView(timeout time.Duration, pred func(View) bool) bool {
	w := &viewWaiter{pred: pred, ch: make(chan struct{})}
	n.mu.Lock()
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()
	if pred(n.View()) {
		n.removeWaiter(w)
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return true
	case <-timer.C:
		n.removeWaiter(w)
		return false
	}
}

// WaitViewSize blocks until the view has exactly n members; see WaitView.
func (n *Node) WaitViewSize(size int, timeout time.Duration) bool {
	return n.WaitView(timeout, func(v View) bool { return v.Size() == size })
}

// ID returns this node's ID.
func (n *Node) ID() NodeID { return n.cfg.Self }

// Addr returns the bound UDP address ("" for custom endpoints), useful
// with port 0.
func (n *Node) Addr() string {
	if n.udp == nil {
		return ""
	}
	return n.udp.LocalAddr().String()
}

// AddPeer registers a remote node's UDP address. It fails on custom
// endpoints, which carry their own addressing.
func (n *Node) AddPeer(peer NodeID, addr string) error {
	if n.udp == nil {
		return errors.New("scalamedia: AddPeer requires the UDP transport")
	}
	return n.udp.AddPeer(peer, addr)
}

// View returns the current session membership.
func (n *Node) View() (v View) {
	n.runner.Do(func() { v = n.sess.View() })
	return v
}

// Evicted reports whether the membership service removed this node from
// the session (a lost partition or a false suspicion). An evicted node
// also receives a SelfEvicted event; it must be closed and replaced with
// a fresh node to rejoin.
func (n *Node) Evicted() (ev bool) {
	n.runner.Do(func() { ev = n.sess.Evicted() })
	return ev
}

// Directory returns the current stream directory.
func (n *Node) Directory() (d []Announcement) {
	n.runner.Do(func() { d = n.sess.Directory() })
	return d
}

// flowOpened is the rmcast layer's signal that a full flow window has
// drained below its bound; it wakes one blocked SendContext. Called
// inside an activation; the cap-1 channel send never blocks.
func (n *Node) flowOpened() {
	select {
	case n.flowCh <- struct{}{}:
	default:
	}
}

// trySend attempts one multicast as an activation of the node, mapping
// the node's terminal states to their typed errors.
func (n *Node) trySend(payload []byte) error {
	err := ErrClosed
	n.runner.Do(func() {
		if n.sess.Evicted() {
			err = ErrNotMember
			return
		}
		err = n.sess.Send(payload)
	})
	return err
}

// Send multicasts an application message to the session. With a flow
// window configured (Config.FlowWindow) and full, Send blocks until
// stability frees window slots; use SendContext to bound the wait or
// TrySend to fail fast with ErrBackpressure. On a closed node Send
// returns ErrClosed; on an evicted node, ErrNotMember.
func (n *Node) Send(payload []byte) error {
	return n.SendContext(context.Background(), payload)
}

// TrySend is the non-blocking Send: a full flow window returns an error
// satisfying errors.Is(err, ErrBackpressure) instead of waiting.
func (n *Node) TrySend(payload []byte) error {
	return n.trySend(payload)
}

// SendContext is Send bounded by a context: a full flow window blocks
// until stability frees slots, the node closes, or ctx is done (whose
// error is then returned). Time spent blocked is recorded in the
// rmcast.flow_blocked_ms histogram.
func (n *Node) SendContext(ctx context.Context, payload []byte) error {
	err := n.trySend(payload)
	if err == nil || !errors.Is(err, ErrBackpressure) {
		return err
	}
	start := time.Now()
	defer func() {
		n.hFlowBlocked.Observe(float64(time.Since(start).Milliseconds()))
	}()
	// Poll as a fallback alongside the flow-open signal: the signal wakes
	// only one waiter per drain, and stability can also free slots
	// without crossing the reopen edge that fires it.
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-n.flowCh:
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		err = n.trySend(payload)
		if err == nil || !errors.Is(err, ErrBackpressure) {
			return err
		}
	}
}

// Publish disseminates a bulk object (a media file, a codebook, a
// pre-distributed clip) to every participant via erasure-coded scatter
// and peer relay: the publisher transmits on the order of the object
// size once, not once per member. Receivers get ObjectProgress events
// while symbols arrive and one ObjectReceived event with the object
// bytes when their copy reconstructs. Object IDs at or above 1<<63 are
// reserved for the session's internal state transfer.
// Returns ErrClosed on a closed node and ErrNotMember on an evicted one.
func (n *Node) Publish(objID uint64, data []byte) error {
	err := ErrClosed
	n.runner.Do(func() {
		if n.sess.Evicted() {
			err = ErrNotMember
			return
		}
		err = n.sess.Publish(objID, data)
	})
	return err
}

// Fetch returns a completed bulk object's bytes (published locally or
// received from the session), and whether it is available.
func (n *Node) Fetch(objID uint64) (data []byte, ok bool) {
	n.runner.Do(func() { data, ok = n.sess.Fetch(objID) })
	return data, ok
}

// Leave announces departure; call Close afterwards.
func (n *Node) Leave() {
	n.runner.Do(func() { n.sess.Leave() })
}

// Close stops the event loop and the transport. Close is idempotent. It
// must not be called from an OnEvent or OnDegrade callback (see OnEvent).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	msrv := n.msrv
	n.msrv = nil
	n.mu.Unlock()
	expvarUnregister(n)
	if msrv != nil {
		msrv.srv.Close()
	}
	n.runner.Stop()
	if err := n.ep.Close(); err != nil {
		return fmt.Errorf("close transport: %w", err)
	}
	return nil
}

// MediaSender publishes one media stream to the session.
type MediaSender struct {
	node   *Node
	sender *rtx.Sender
	spec   StreamSpec
}

// OpenSender announces a media stream (entered in every participant's
// directory) and returns a sender for its frames. meanRate declares the
// sustained rate in bytes per second; when the node has a QoS budget the
// flow must fit it, and the returned sender is policed at the declared
// peak (twice the mean by default).
func (n *Node) OpenSender(spec StreamSpec, meanRate float64) (*MediaSender, error) {
	var policer *qos.TokenBucket
	if n.admit != nil {
		var err error
		policer, err = n.admit.Admit(qos.FlowSpec{Stream: spec.ID, MeanRate: meanRate})
		if err != nil {
			return nil, fmt.Errorf("admit stream %s: %w", spec.ID, err)
		}
	}
	ms := &MediaSender{node: n}
	ok := n.runner.Do(func() {
		// Build inside an activation: rtx.Sender is loop-affine.
		env := loopEnv{node: n}
		ms.sender = rtx.NewSender(env, n.cfg.Group, spec)
		ms.sender.SetPeers(n.sess.View().Members)
		if policer != nil {
			ms.sender.SetPolicer(policer)
		}
		ms.spec = spec
		// Mux the sender so receiver quality reports reach it.
		n.mux.Add(ms.sender)
	})
	if !ok {
		return nil, ErrClosed
	}
	if err := n.announce(spec, meanRate); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.senders = append(n.senders, ms)
	n.mu.Unlock()
	return ms, nil
}

func (n *Node) announce(spec StreamSpec, meanRate float64) error {
	err := ErrClosed
	n.runner.Do(func() { err = n.sess.Announce(spec, meanRate) })
	return err
}

// Send transmits one frame to every current participant. It reports
// whether the frame conformed to the stream's QoS contract and was sent.
//
// Frames marked Droppable participate in graceful degradation: under
// multicast flow-control pushback (the group is pacing to a slow
// receiver) or when the QoS policer rejects them, they are shed —
// counted in media.frames_shed, recorded in the flight ring and
// reported through Config.OnDegrade — and Send returns false. Unmarked
// frames are treated as essential: they are never shed proactively and
// fail only by the policer's own verdict. Reliable control traffic
// (Node.Send multicasts) is never shed, only backpressured.
func (ms *MediaSender) Send(f Frame) bool {
	admitted := false
	ms.node.runner.Do(func() {
		if f.Droppable && ms.node.sess.Stack().FlowBlocked() {
			ms.shed(f)
			return
		}
		admitted = ms.sender.Send(f)
		if !admitted && f.Droppable {
			ms.shed(f)
		}
	})
	return admitted
}

// shed accounts one frame dropped by graceful degradation. Runs inside
// an activation.
func (ms *MediaSender) shed(f Frame) {
	n := ms.node
	n.mFramesShed.Inc()
	n.flight.Record(uint64(n.cfg.Self), time.Now().UnixMilli(),
		flightrec.EvFrameShed, uint64(f.Stream), f.Seq)
	if n.admit != nil {
		n.admit.NotifyDegrade(f.Stream, len(f.Data))
	} else if n.cfg.OnDegrade != nil {
		n.cfg.OnDegrade(f.Stream, len(f.Data))
	}
}

// Stats returns frames and bytes sent.
func (ms *MediaSender) Stats() (frames, bytes uint64) {
	ms.node.runner.Do(func() { frames, bytes = ms.sender.Stats() })
	return frames, bytes
}

// EnableFEC turns on XOR forward error correction with block size k;
// receivers must set ReceiverConfig.FECBlock to the same k.
func (ms *MediaSender) EnableFEC(k int) error {
	err := ErrClosed
	ms.node.runner.Do(func() { err = ms.sender.SetFEC(k) })
	return err
}

// SetMaxFragment enables fragmentation of frames larger than n bytes;
// receivers must set ReceiverConfig.Reassemble.
func (ms *MediaSender) SetMaxFragment(n int) {
	ms.node.runner.Do(func() { ms.sender.SetMaxFragment(n) })
}

// RateAdvice summarizes receiver quality reports into a rate-adaptation
// recommendation (Hold with no feedback yet).
func (ms *MediaSender) RateAdvice() Advice {
	advice := Hold
	ms.node.runner.Do(func() { advice = ms.sender.RateAdvice() })
	return advice
}

// Reports returns the latest quality report from each receiver.
func (ms *MediaSender) Reports() (out []QualityReport) {
	ms.node.runner.Do(func() { out = ms.sender.Reports() })
	return out
}

// MediaReceiver consumes one media stream with playout buffering.
type MediaReceiver struct {
	node   *Node
	recv   *rtx.Receiver
	syncFn func(Frame, time.Time) // set by Synchronize; loop-affine
}

// ReceiverConfig parameterizes OpenReceiver.
type ReceiverConfig struct {
	// Spec describes the stream (use the directory announcement).
	Spec StreamSpec
	// Mode selects fixed or adaptive playout; defaults to Adaptive.
	Mode PlayoutMode
	// PlayoutDelay is the fixed/initial playout delay.
	PlayoutDelay time.Duration
	// FECBlock enables FEC repair; must match the sender's EnableFEC k.
	FECBlock int
	// Reassemble enables fragmented-frame reassembly; required when the
	// sender uses SetMaxFragment.
	Reassemble bool
	// ReportEvery enables periodic quality reports back to the stream's
	// sender; zero disables them.
	ReportEvery time.Duration
	// MaxBuffered bounds the playout buffer in frames with a drop-oldest
	// policy, accounted in MediaStats.QueueDropped and the
	// media.queue_dropped counter. Zero means unbounded.
	MaxBuffered int
	// OnPlay receives frames at their playout points, serialized with
	// every other activation of the node.
	OnPlay func(f Frame, playedAt time.Time)
}

// OpenReceiver subscribes to a media stream.
func (n *Node) OpenReceiver(cfg ReceiverConfig) (*MediaReceiver, error) {
	mr := &MediaReceiver{node: n}
	ok := n.runner.Do(func() {
		env := loopEnv{node: n}
		mr.recv = rtx.NewReceiver(env, rtx.Config{
			Group:        n.cfg.Group,
			Stream:       cfg.Spec.ID,
			Spec:         cfg.Spec,
			Mode:         cfg.Mode,
			PlayoutDelay: cfg.PlayoutDelay,
			FECBlock:     cfg.FECBlock,
			Reassemble:   cfg.Reassemble,
			MaxBuffered:  cfg.MaxBuffered,
			Metrics:      n.reg,
			Flight:       n.flight,
			OnPlay: func(f Frame, at time.Time) {
				if mr.syncFn != nil {
					mr.syncFn(f, at)
				}
				if cfg.OnPlay != nil {
					cfg.OnPlay(f, at)
				}
			},
		})
		if cfg.ReportEvery > 0 {
			mr.recv.EnableReports(cfg.ReportEvery)
		}
		n.mux.Add(mr.recv)
	})
	if !ok {
		return nil, ErrClosed
	}
	return mr, nil
}

// Stats returns the receiver's playout statistics.
func (mr *MediaReceiver) Stats() (st MediaStats) {
	mr.node.runner.Do(func() { st = mr.recv.Stats() })
	return st
}

// SyncGroup keeps a master stream and its slaves lip-synced; see the
// msync package for the policy.
type SyncGroup struct {
	node *Node
	ctl  *msync.Controller
}

// syncTick drives the controller from the node's ticks.
type syncTick struct{ ctl *msync.Controller }

func (s syncTick) OnMessage(id.Node, *wire.Message) {}
func (s syncTick) OnTick(now time.Time)             { s.ctl.OnTick(now) }

// Synchronize binds slave receivers to a master (conventionally the audio
// stream): their playout timelines are steered to stay within maxSkew of
// the master's. Pass zero for the default 80ms bound.
func (n *Node) Synchronize(maxSkew time.Duration, master *MediaReceiver, slaves ...*MediaReceiver) (*SyncGroup, error) {
	sg := &SyncGroup{node: n}
	ok := n.runner.Do(func() {
		recvs := make([]*rtx.Receiver, len(slaves))
		for i, s := range slaves {
			recvs[i] = s.recv
		}
		sg.ctl = msync.New(msync.Config{
			MaxSkew: maxSkew,
			Metrics: n.reg,
			Flight:  n.flight,
		}, master.recv, recvs...)
		master.syncFn = sg.ctl.ObserveMaster
		for i, s := range slaves {
			i := i
			s.syncFn = func(f Frame, at time.Time) { sg.ctl.ObserveSlave(i, f, at) }
		}
		n.mux.Add(syncTick{sg.ctl})
	})
	if !ok {
		return nil, ErrClosed
	}
	return sg, nil
}

// Skew returns the latest measured skew of slave i relative to the
// master (positive: slave late), and whether both streams have played.
func (sg *SyncGroup) Skew(i int) (d time.Duration, ok bool) {
	sg.node.runner.Do(func() { d, ok = sg.ctl.Skew(i) })
	return d, ok
}

// Corrections returns how many playout adjustments have been applied.
func (sg *SyncGroup) Corrections() (c uint64) {
	sg.node.runner.Do(func() { c = sg.ctl.Corrections() })
	return c
}

// loopEnv adapts the node for engines constructed after startup; it is
// only used inside an activation.
type loopEnv struct{ node *Node }

var _ proto.Env = loopEnv{}

func (e loopEnv) Self() NodeID   { return e.node.cfg.Self }
func (e loopEnv) Now() time.Time { return time.Now() }
func (e loopEnv) Send(to NodeID, msg *wire.Message) {
	_ = e.node.ep.Send(to, msg)
}
