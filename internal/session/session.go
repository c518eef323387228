// Package session implements the session-control layer of the
// architecture: a multimedia session is a process group plus a replicated
// directory of the media streams its participants offer. Stream
// announcements and withdrawals travel as ordered reliable multicasts, so
// every participant converges on the same directory; membership changes
// withdraw a departed participant's streams automatically.
//
// Media data itself does not pass through this layer — senders and
// receivers (internal/rtx) exchange timestamped frames directly — but the
// directory tells every participant which streams exist, who produces
// them, and what flow specification they declared, which is what the QoS
// layer admits against.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"scalamedia/internal/bulk"
	"scalamedia/internal/core"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// EventKind discriminates session events.
type EventKind int

// The session event kinds.
const (
	// ParticipantJoined reports a view that added the node.
	ParticipantJoined EventKind = iota + 1
	// ParticipantLeft reports a view that removed the node.
	ParticipantLeft
	// StreamAnnounced reports a new directory entry.
	StreamAnnounced
	// StreamWithdrawn reports a removed directory entry.
	StreamWithdrawn
	// MessageReceived reports an application data multicast.
	MessageReceived
	// SelfEvicted reports that the membership service removed this node
	// from the session (a lost partition or a false suspicion); the node
	// must rejoin with a fresh engine to participate again.
	SelfEvicted
	// JoinFailed reports that the join attempt cap was exhausted without
	// admission (see Config.JoinAttempts); the node must retry with a
	// fresh engine, ideally through a different contact.
	JoinFailed
	// ObjectReceived reports a completed bulk-object transfer; Event.Object
	// names it and Event.Payload holds its bytes.
	ObjectReceived
	// ObjectProgress reports bulk-transfer advancement: Event.Done of
	// Event.Total generations decoded.
	ObjectProgress
	// MemberSlow reports a participant whose multicast ack lag crossed
	// the slow threshold (Event.Slow true) or that caught back up
	// (Event.Slow false). Event.Lag carries the lag in messages. Only
	// emitted when the session's overload knobs enable slow tracking
	// (FlowWindow, SlowAfter or an EvictSlow policy).
	MemberSlow
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case ParticipantJoined:
		return "participant-joined"
	case ParticipantLeft:
		return "participant-left"
	case StreamAnnounced:
		return "stream-announced"
	case StreamWithdrawn:
		return "stream-withdrawn"
	case MessageReceived:
		return "message-received"
	case SelfEvicted:
		return "self-evicted"
	case JoinFailed:
		return "join-failed"
	case ObjectReceived:
		return "object-received"
	case ObjectProgress:
		return "object-progress"
	case MemberSlow:
		return "member-slow"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Announcement is one directory entry: a stream and its owner.
type Announcement struct {
	Owner id.Node
	Spec  media.StreamSpec
	// MeanRate is the declared sustained rate in bytes/second, for QoS
	// admission at receivers.
	MeanRate float64
}

// Event is one session notification.
type Event struct {
	Kind    EventKind
	Node    id.Node      // joined/left participant, message sender or object origin
	Stream  Announcement // announced/withdrawn stream
	Payload []byte       // application message or completed object bytes
	View    member.View  // view in effect
	Err     error        // JoinFailed cause (e.g. member.ErrJoinUnreachable)
	// Bulk-object fields (ObjectReceived / ObjectProgress).
	Object      uint64 // object ID
	Done, Total int    // generations decoded so far / overall
	// Slow-receiver fields (MemberSlow): Lag is the peer's multicast ack
	// lag in messages; Slow reports whether it is now flagged (false
	// means it caught back up).
	Lag  uint64
	Slow bool
}

// Config parameterizes a session engine.
type Config struct {
	// Group and Contact configure the underlying core stack.
	Group   id.Group
	Contact id.Node
	// Ordering is the control/application multicast discipline;
	// defaults to Causal, so directory updates respect causality.
	Ordering rmcast.Ordering
	// OnEvent receives session notifications from the event loop.
	OnEvent func(Event)

	// Timing knobs forwarded to the core stack (zero = defaults).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	FlushTimeout   time.Duration
	JoinRetry      time.Duration
	ResendAfter    time.Duration
	StabilizeEvery time.Duration
	// Suppression tunes the SRM-style randomized loss-recovery timers;
	// see rmcast.Config.
	Suppression rmcast.Suppression
	// Distance estimates one-way delay to a peer for the suppression
	// timers; a clocksync.Engine's Distance method is a ready-made
	// implementation. Nil or zero falls back to the multicast engine's
	// own round-trip measurement (see rmcast.Config.Distance).
	Distance func(id.Node) time.Duration
	// JoinBackoffMax and JoinAttempts tune the jittered-exponential join
	// retry; see member.Config. A hit attempt cap surfaces as a
	// JoinFailed event.
	JoinBackoffMax time.Duration
	JoinAttempts   int
	// AdvertiseAddr is the transport address this node asks the session
	// to reach it at; see member.Config.AdvertiseAddr.
	AdvertiseAddr string
	// OnPeerAddr receives learned member addresses so the driver can
	// teach the transport peer table; see member.Config.OnPeerAddr.
	OnPeerAddr func(id.Node, string)
	// PrimaryPartition forwards the membership majority rule; see
	// member.Config.PrimaryPartition.
	PrimaryPartition bool

	// Overload robustness knobs, forwarded to the core stack (see
	// core.Config). Setting any of FlowWindow, SlowAfter or an EvictSlow
	// policy enables slow tracking, surfaced as MemberSlow events.
	FlowWindow      int
	FlowWindowBytes int
	SlowAfter       int
	SlowPolicy      member.SlowPolicy
	SlowGrace       time.Duration
	// OnFlowOpen fires when a previously full flow window drains below
	// its bound; see rmcast.Config.OnFlowOpen.
	OnFlowOpen func()

	// AutoHier routes the session's multicasts (application data and
	// directory control) through the self-organizing hierarchical overlay;
	// see core.Config.AutoHier. The overlay claims groups Group+1..Group+3
	// and delivers FIFO per origin, so cross-owner causality of directory
	// updates is traded for scale — each owner's announcements and
	// withdrawals still arrive in order, which is what the directory
	// semantics require.
	AutoHier bool
	// HierFanOut bounds overlay cluster sizes; zero = hier default.
	HierFanOut int
	// HierForm tunes overlay formation (zero = defaults).
	HierForm hier.FormConfig

	// Metrics, when non-nil, receives live counters from every layer of
	// the stack plus the session directory (session.*).
	Metrics *stats.Registry
	// Flight, when non-nil, records protocol events from every layer.
	Flight *flightrec.Recorder
}

// session-control opcodes, carried as the first payload byte of
// KindSessionCtl-tagged multicasts.
const (
	opData     = 1
	opAnnounce = 2
	opWithdraw = 3
	// opBulk announces a bulk object: the body is its manifest. The coded
	// symbols themselves never touch the ordered channel.
	opBulk = 4
)

// State-transfer framing: the first byte of the membership snapshot blob
// selects inline directory bytes (small sessions) or a bulk-object
// manifest the joiner pulls symbols for (large directories), so the
// member-channel JoinAck stays O(1) in session history.
const (
	stateTagInline   = 0
	stateTagManifest = 1
	// inlineStateMax is the largest directory snapshot still carried
	// inline in the JoinAck.
	inlineStateMax = 1024
)

// stateObjBase marks bulk object IDs minted for directory state
// transfer; applications should keep their own object IDs below 1<<63.
const stateObjBase = uint64(1) << 63

// Errors.
var (
	// ErrUnknownStream reports a withdrawal of an unannounced stream.
	ErrUnknownStream = errors.New("session: unknown stream")
	// ErrNotOwner reports a withdrawal by a non-owner.
	ErrNotOwner = errors.New("session: not stream owner")
)

// Engine is one participant's session state. It implements proto.Handler.
type Engine struct {
	env   proto.Env
	cfg   Config
	stack *core.Stack

	directory map[id.Stream]Announcement
	prevView  member.View

	// Directory state-transfer over bulk: the coordinator publishes big
	// snapshots as scatterless bulk objects (stateObjID/stateBlob cache
	// one object per distinct snapshot); a joiner remembers which object
	// it is waiting on to install as its directory.
	stateSeq         uint64
	stateObjID       uint64
	stateBlob        []byte
	pendingStateObj  uint64
	pendingStateView member.View

	sendScratch []byte // Send's framing buffer

	// Live session-directory counters, resolved once in New.
	mAnnounces *stats.Counter
	mWithdraws *stats.Counter
	mMessages  *stats.Counter
}

var (
	_ proto.Handler  = (*Engine)(nil)
	_ proto.Windowed = (*Engine)(nil)
)

// New builds a session engine and its underlying stack.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.Ordering == 0 {
		cfg.Ordering = rmcast.Causal
	}
	e := &Engine{
		env:        env,
		cfg:        cfg,
		directory:  make(map[id.Stream]Announcement),
		mAnnounces: &stats.Counter{},
		mWithdraws: &stats.Counter{},
		mMessages:  &stats.Counter{},
	}
	if cfg.Metrics != nil {
		e.mAnnounces = cfg.Metrics.Counter("session.streams_announced")
		e.mWithdraws = cfg.Metrics.Counter("session.streams_withdrawn")
		e.mMessages = cfg.Metrics.Counter("session.messages_recv")
	}
	// Slow tracking is opt-in (see Config); when enabled, flag
	// transitions surface as MemberSlow session events.
	var onSlow func(id.Node, uint64, bool)
	if cfg.FlowWindow > 0 || cfg.SlowAfter > 0 || cfg.SlowPolicy == member.EvictSlow {
		onSlow = func(peer id.Node, lag uint64, slow bool) {
			e.emit(Event{Kind: MemberSlow, Node: peer, Lag: lag, Slow: slow,
				View: e.stack.View()})
		}
	}
	e.stack = core.NewStack(env, core.Config{
		Group:            cfg.Group,
		Contact:          cfg.Contact,
		Ordering:         cfg.Ordering,
		HeartbeatEvery:   cfg.HeartbeatEvery,
		SuspectAfter:     cfg.SuspectAfter,
		FlushTimeout:     cfg.FlushTimeout,
		JoinRetry:        cfg.JoinRetry,
		ResendAfter:      cfg.ResendAfter,
		StabilizeEvery:   cfg.StabilizeEvery,
		Suppression:      cfg.Suppression,
		Distance:         cfg.Distance,
		JoinBackoffMax:   cfg.JoinBackoffMax,
		JoinAttempts:     cfg.JoinAttempts,
		AdvertiseAddr:    cfg.AdvertiseAddr,
		OnPeerAddr:       cfg.OnPeerAddr,
		PrimaryPartition: cfg.PrimaryPartition,
		FlowWindow:       cfg.FlowWindow,
		FlowWindowBytes:  cfg.FlowWindowBytes,
		SlowAfter:        cfg.SlowAfter,
		SlowPolicy:       cfg.SlowPolicy,
		SlowGrace:        cfg.SlowGrace,
		OnFlowOpen:       cfg.OnFlowOpen,
		OnSlow:           onSlow,
		AutoHier:         cfg.AutoHier,
		HierFanOut:       cfg.HierFanOut,
		HierForm:         cfg.HierForm,
		Metrics:          cfg.Metrics,
		Flight:           cfg.Flight,
		OnView:           e.onView,
		OnDeliver:        e.onDeliver,
		OnEvicted:        e.onEvicted,
		OnJoinFailed:     e.onJoinFailed,
		Snapshot:         e.snapshotState,
		OnState:          e.installState,
		OnObject:         e.onObject,
		OnObjectProgress: e.onObjectProgress,
	})
	return e
}

// onEvicted surfaces the membership layer removing this node.
func (e *Engine) onEvicted() {
	e.emit(Event{Kind: SelfEvicted, Node: e.env.Self(), View: e.prevView})
}

// onJoinFailed surfaces join abandonment at the attempt cap.
func (e *Engine) onJoinFailed(err error) {
	e.emit(Event{Kind: JoinFailed, Node: e.env.Self(), Err: err})
}

// snapshotDirectory serializes the stream directory for state transfer to
// a joining participant.
func (e *Engine) snapshotDirectory() []byte {
	var buf []byte
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(e.directory)))
	buf = append(buf, count[:]...)
	for _, a := range e.Directory() {
		body := encodeAnnouncement(a)
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(body)))
		buf = append(buf, l[:]...)
		buf = append(buf, body...)
	}
	return buf
}

// installDirectory merges a transferred directory snapshot; existing
// entries (from announcements that raced ahead) win.
func (e *Engine) installDirectory(v member.View, state []byte) {
	if len(state) < 4 {
		return
	}
	count := int(binary.BigEndian.Uint32(state))
	off := 4
	for i := 0; i < count; i++ {
		if len(state) < off+2 {
			return
		}
		l := int(binary.BigEndian.Uint16(state[off:]))
		off += 2
		if len(state) < off+l {
			return
		}
		a, err := decodeAnnouncement(state[off : off+l])
		off += l
		if err != nil {
			continue
		}
		if _, exists := e.directory[a.Spec.ID]; exists {
			continue
		}
		e.directory[a.Spec.ID] = a
		e.emit(Event{Kind: StreamAnnounced, Node: a.Owner, Stream: a, View: e.stack.View()})
	}
}

// snapshotState frames the directory snapshot for the JoinAck: small
// directories ride inline; larger ones are published as a scatterless
// bulk object so the member channel carries only the fixed-size manifest
// and the joiner pulls the coded symbols out of band. One bulk object is
// minted per distinct snapshot and re-offered to later joiners.
func (e *Engine) snapshotState() []byte {
	blob := e.snapshotDirectory()
	if len(blob) <= inlineStateMax {
		return append([]byte{stateTagInline}, blob...)
	}
	if e.stateObjID == 0 || string(blob) != string(e.stateBlob) {
		e.stateSeq++
		e.stateObjID = stateObjBase | (uint64(e.env.Self())&0xffffff)<<32 | (e.stateSeq & 0xffffffff)
		e.stateBlob = append(e.stateBlob[:0], blob...)
	}
	man, err := e.stack.Bulk().Publish(e.stateObjID, blob)
	if err != nil {
		// Cannot register the object (ID collision with an application
		// object, say): fall back to the inline path rather than strand
		// the joiner.
		return append([]byte{stateTagInline}, blob...)
	}
	return append([]byte{stateTagManifest}, bulk.AppendManifest(nil, man)...)
}

// installState unpacks a JoinAck state blob: inline directories install
// immediately; a manifest starts a bulk pull that installs on completion.
func (e *Engine) installState(v member.View, state []byte) {
	if len(state) == 0 {
		return
	}
	tag, body := state[0], state[1:]
	switch tag {
	case stateTagInline:
		e.installDirectory(v, body)
	case stateTagManifest:
		man, err := bulk.DecodeManifest(body)
		if err != nil {
			return
		}
		if data, ok := e.stack.Bulk().Object(man.Object); ok {
			e.installDirectory(v, data)
			return
		}
		e.pendingStateObj = man.Object
		e.pendingStateView = v
		// Nobody scatters a state snapshot: fetch it now.
		e.stack.Bulk().Pull(man)
	}
}

// onObject installs a completed state-transfer snapshot or surfaces an
// application bulk object.
func (e *Engine) onObject(o bulk.Object) {
	if e.pendingStateObj != 0 && o.ID == e.pendingStateObj {
		e.pendingStateObj = 0
		e.installDirectory(e.pendingStateView, o.Data)
		return
	}
	e.emit(Event{Kind: ObjectReceived, Node: o.Origin, Object: o.ID, Payload: o.Data,
		View: e.stack.View()})
}

// onObjectProgress surfaces bulk-transfer advancement; state-transfer
// pulls stay internal.
func (e *Engine) onObjectProgress(p bulk.Progress) {
	if e.pendingStateObj != 0 && p.ID == e.pendingStateObj {
		return
	}
	e.emit(Event{Kind: ObjectProgress, Node: p.Origin, Object: p.ID,
		Done: p.Done, Total: p.Total, View: e.stack.View()})
}

// View returns the current session membership.
func (e *Engine) View() member.View { return e.stack.View() }

// Stack exposes the underlying group communication service.
func (e *Engine) Stack() *core.Stack { return e.stack }

// Directory returns the current stream directory sorted by stream ID.
func (e *Engine) Directory() []Announcement {
	out := make([]Announcement, 0, len(e.directory))
	for _, a := range e.directory {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// Lookup returns the directory entry for a stream.
func (e *Engine) Lookup(sid id.Stream) (Announcement, bool) {
	a, ok := e.directory[sid]
	return a, ok
}

// Send multicasts an application message to the session. It frames the
// payload in a reused buffer: every multicast path copies what it keeps.
func (e *Engine) Send(payload []byte) error {
	e.sendScratch = append(append(e.sendScratch[:0], opData), payload...)
	if err := e.stack.Multicast(e.sendScratch); err != nil {
		return fmt.Errorf("session send: %w", err)
	}
	return nil
}

// Announce publishes a stream this node will produce.
func (e *Engine) Announce(spec media.StreamSpec, meanRate float64) error {
	body := encodeAnnouncement(Announcement{Owner: e.env.Self(), Spec: spec, MeanRate: meanRate})
	buf := append([]byte{opAnnounce}, body...)
	if err := e.stack.Multicast(buf); err != nil {
		return fmt.Errorf("announce %s: %w", spec.ID, err)
	}
	return nil
}

// Publish disseminates a bulk object to the session: only the manifest
// rides the ordered channel, and it goes first; the coded symbols then
// scatter over the membership for peer relay (internal/bulk), so on an
// ordered path they find the object already announced. A manifest the
// channel refuses (ErrBackpressure) sends no symbols; the encoded object
// stays registered, so retrying the call with the same bytes only repeats
// the announcement. Each participant receives an ObjectReceived event when
// its copy reconstructs, with ObjectProgress events along the way. Object
// IDs at or above 1<<63 are reserved for the session's own state transfer.
func (e *Engine) Publish(objID uint64, data []byte) error {
	man, err := e.stack.Bulk().Publish(objID, data)
	if err != nil {
		return fmt.Errorf("publish object %d: %w", objID, err)
	}
	buf := append([]byte{opBulk}, bulk.AppendManifest(nil, man)...)
	if err := e.stack.Multicast(buf); err != nil {
		return fmt.Errorf("publish object %d: %w", objID, err)
	}
	e.stack.Bulk().Scatter(objID)
	return nil
}

// Fetch returns a completed bulk object's bytes (published locally or
// received from the session).
func (e *Engine) Fetch(objID uint64) ([]byte, bool) { return e.stack.Bulk().Object(objID) }

// ObjectProgressOf returns a transfer's decoded/total generation counts.
func (e *Engine) ObjectProgressOf(objID uint64) (done, total int, ok bool) {
	return e.stack.Bulk().Progress(objID)
}

// Withdraw removes a stream this node previously announced.
func (e *Engine) Withdraw(sid id.Stream) error {
	a, ok := e.directory[sid]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStream, sid)
	}
	if a.Owner != e.env.Self() {
		return fmt.Errorf("%w: %s owned by %s", ErrNotOwner, sid, a.Owner)
	}
	var buf [5]byte
	buf[0] = opWithdraw
	binary.BigEndian.PutUint32(buf[1:], uint32(sid))
	if err := e.stack.Multicast(buf[:]); err != nil {
		return fmt.Errorf("withdraw %s: %w", sid, err)
	}
	return nil
}

// Leave departs the session.
func (e *Engine) Leave() { e.stack.Leave() }

// Evicted reports whether the membership service removed this node.
func (e *Engine) Evicted() bool { return e.stack.Evicted() }

// onView diffs membership and withdraws departed participants' streams.
func (e *Engine) onView(v member.View) {
	prev := e.prevView
	e.prevView = v
	// Departures first: their streams leave the directory.
	for _, m := range prev.Members {
		if !v.Contains(m) {
			e.dropStreamsOf(m, v)
			e.emit(Event{Kind: ParticipantLeft, Node: m, View: v})
		}
	}
	for _, m := range v.Members {
		if !prev.Contains(m) {
			e.emit(Event{Kind: ParticipantJoined, Node: m, View: v})
		}
	}
}

func (e *Engine) dropStreamsOf(n id.Node, v member.View) {
	for sid, a := range e.directory {
		if a.Owner == n {
			delete(e.directory, sid)
			e.emit(Event{Kind: StreamWithdrawn, Node: n, Stream: a, View: v})
		}
	}
}

// onDeliver decodes a session-control multicast.
func (e *Engine) onDeliver(d rmcast.Delivery) {
	if len(d.Payload) == 0 {
		return
	}
	op, body := d.Payload[0], d.Payload[1:]
	switch op {
	case opData:
		e.mMessages.Inc()
		e.emit(Event{Kind: MessageReceived, Node: d.Sender, Payload: body, View: e.stack.View()})
	case opAnnounce:
		a, err := decodeAnnouncement(body)
		if err != nil || a.Owner != d.Sender {
			return // malformed or spoofed announcement
		}
		e.directory[a.Spec.ID] = a
		e.mAnnounces.Inc()
		e.emit(Event{Kind: StreamAnnounced, Node: d.Sender, Stream: a, View: e.stack.View()})
	case opWithdraw:
		if len(body) < 4 {
			return
		}
		sid := id.Stream(binary.BigEndian.Uint32(body))
		a, ok := e.directory[sid]
		if !ok || a.Owner != d.Sender {
			return
		}
		delete(e.directory, sid)
		e.mWithdraws.Inc()
		e.emit(Event{Kind: StreamWithdrawn, Node: d.Sender, Stream: a, View: e.stack.View()})
	case opBulk:
		man, err := bulk.DecodeManifest(body)
		if err != nil || man.Origin != d.Sender {
			return // malformed or spoofed manifest
		}
		e.stack.Bulk().OnManifest(man)
	}
}

func (e *Engine) emit(ev Event) {
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// OnMessage forwards to the stack.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) { e.stack.OnMessage(from, msg) }

// OnTick forwards to the stack.
func (e *Engine) OnTick(now time.Time) { e.stack.OnTick(now) }

// Window, OnActivationEnd and OnWindow forward proto.Windowed to the stack.
func (e *Engine) Window() time.Duration  { return e.stack.Window() }
func (e *Engine) OnActivationEnd()       { e.stack.OnActivationEnd() }
func (e *Engine) OnWindow(now time.Time) { e.stack.OnWindow(now) }

// encodeAnnouncement lays out: owner(8) rate(8 as bits) id(4) kind(1)
// clockRate(4) frameEvery(8) nameLen(2) name.
func encodeAnnouncement(a Announcement) []byte {
	name := a.Spec.Name
	if len(name) > 255 {
		name = name[:255]
	}
	buf := make([]byte, 0, 35+len(name))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(a.Owner))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(int64(a.MeanRate*1000))) // milli-bytes/s
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(a.Spec.ID))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, byte(a.Spec.Kind))
	binary.BigEndian.PutUint32(tmp[:4], uint32(a.Spec.ClockRate))
	buf = append(buf, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(a.Spec.FrameEvery))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint16(tmp[:2], uint16(len(name)))
	buf = append(buf, tmp[:2]...)
	buf = append(buf, name...)
	return buf
}

func decodeAnnouncement(buf []byte) (Announcement, error) {
	if len(buf) < 35 {
		return Announcement{}, wire.ErrShortMessage
	}
	var a Announcement
	a.Owner = id.Node(binary.BigEndian.Uint64(buf))
	a.MeanRate = float64(int64(binary.BigEndian.Uint64(buf[8:]))) / 1000
	a.Spec.ID = id.Stream(binary.BigEndian.Uint32(buf[16:]))
	a.Spec.Kind = media.Kind(buf[20])
	a.Spec.ClockRate = int(binary.BigEndian.Uint32(buf[21:]))
	a.Spec.FrameEvery = time.Duration(binary.BigEndian.Uint64(buf[25:]))
	nameLen := int(binary.BigEndian.Uint16(buf[33:]))
	if len(buf) < 35+nameLen {
		return Announcement{}, wire.ErrShortMessage
	}
	a.Spec.Name = string(buf[35 : 35+nameLen])
	return a, nil
}
