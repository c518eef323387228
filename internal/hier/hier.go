// Package hier implements the scalability layer of the architecture: a
// large process group organized as clusters (one per LAN segment or site,
// in the paper's setting), each with a designated relay, connected by a
// wide-area relay group.
//
// A multicast from a node is reliably multicast within its own cluster;
// the cluster's relay forwards it — wrapped in an origin envelope — over
// the relay group to the other clusters' relays, which re-multicast it
// into their clusters. Every node therefore receives each message through
// exactly one reliable intra-cluster channel, and per-origin FIFO order is
// preserved end to end. The win over a flat group is that reliability and
// stability traffic (NACKs, acknowledgment gossip) stays within a cluster
// or within the small relay group, so per-node control overhead scales
// with the cluster size rather than with the total group size — the
// paper's headline scalability argument, measured by experiments T3 and
// F5.
//
// Global causal or total order across clusters is deliberately not
// provided: the hierarchy trades ordering strength for scale, and
// applications needing those guarantees run them inside a cluster.
package hier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"scalamedia/internal/clocksync"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// Errors returned by the hierarchy.
var (
	// ErrNotInTopology reports a node absent from every cluster.
	ErrNotInTopology = errors.New("hier: node not in topology")
	// ErrBadEnvelope reports a relay payload that failed to decode.
	ErrBadEnvelope = errors.New("hier: bad origin envelope")
)

// Topology is the cluster layout of a hierarchical group — hand-written
// for the static configuration, or computed by overlay formation when
// Config.AutoHier is set.
type Topology struct {
	// Clusters lists the member nodes of each cluster. A node belongs
	// to exactly one cluster. The lowest-ID node of each cluster is its
	// relay unless Coordinators pins another member.
	Clusters [][]id.Node
	// Coordinators, when non-empty, pins each cluster's relay (the
	// formation layer elects the latency medoid rather than the lowest
	// ID). Empty or id.None entries fall back to the lowest-ID rule.
	Coordinators []id.Node
}

// Cluster returns a uniform clustering of nodes into groups of at most
// size, preserving input order.
func Cluster(nodes []id.Node, size int) Topology {
	if size < 1 {
		size = 1
	}
	var t Topology
	for start := 0; start < len(nodes); start += size {
		end := start + size
		if end > len(nodes) {
			end = len(nodes)
		}
		cluster := make([]id.Node, end-start)
		copy(cluster, nodes[start:end])
		t.Clusters = append(t.Clusters, cluster)
	}
	return t
}

// ClusterOf returns the index of the cluster containing n, or -1.
func (t Topology) ClusterOf(n id.Node) int {
	for i, c := range t.Clusters {
		for _, m := range c {
			if m == n {
				return i
			}
		}
	}
	return -1
}

// RelayOf returns the relay of cluster i: the pinned coordinator when
// one is set, the lowest-ID member otherwise.
func (t Topology) RelayOf(i int) id.Node {
	if i < 0 || i >= len(t.Clusters) || len(t.Clusters[i]) == 0 {
		return id.None
	}
	if i < len(t.Coordinators) && t.Coordinators[i] != id.None {
		return t.Coordinators[i]
	}
	relay := t.Clusters[i][0]
	for _, m := range t.Clusters[i] {
		if m < relay {
			relay = m
		}
	}
	return relay
}

// Relays returns every cluster's relay.
func (t Topology) Relays() []id.Node {
	out := make([]id.Node, 0, len(t.Clusters))
	for i := range t.Clusters {
		if r := t.RelayOf(i); r != id.None {
			out = append(out, r)
		}
	}
	return out
}

// Size returns the total node count.
func (t Topology) Size() int {
	n := 0
	for _, c := range t.Clusters {
		n += len(c)
	}
	return n
}

// Delivery is one application message delivered by the hierarchy,
// carrying the original sender rather than the relay hop.
type Delivery struct {
	Group   id.Group
	Origin  id.Node
	Seq     uint64 // origin's per-view sequence number
	Payload []byte
}

// Config parameterizes a hierarchical engine.
type Config struct {
	// LocalGroup is the group ID used for intra-cluster multicast.
	LocalGroup id.Group
	// WideGroup is the group ID used between relays; it must differ
	// from LocalGroup.
	WideGroup id.Group
	// Topology is the static cluster layout. Ignored under AutoHier,
	// where the overlay forms itself from RTT measurements.
	Topology Topology
	// AutoHier enables self-organizing overlay formation: the node
	// bootstraps as a singleton cluster, measures peer distances, and
	// follows the formation leader's epoch-numbered topologies (see
	// form.go). Topology is then ignored; Members seeds the universe.
	AutoHier bool
	// Members is the known member universe under AutoHier (self is
	// implied); SetMembers updates it as the membership layer learns of
	// joins and departures.
	Members []id.Node
	// FanOut bounds a cluster's size — and with it every relay's
	// re-multicast fan-out — under AutoHier. Defaults to DefaultFanOut.
	FanOut int
	// ClockGroup, when non-zero and Distance is nil, gives AutoHier a
	// built-in clocksync engine probing the member universe on this
	// group; its per-peer matrix becomes the Distance estimator for
	// both formation and suppression.
	ClockGroup id.Group
	// Form tunes the formation protocol (zero value = defaults).
	Form FormConfig
	// Ordering is the intra-cluster delivery discipline. Defaults to
	// FIFO, which is also the end-to-end per-origin guarantee.
	Ordering rmcast.Ordering
	// OnDeliver receives application messages.
	OnDeliver func(Delivery)
	// StabilizeEvery is forwarded to the constituent rmcast engines
	// (zero = the rmcast default).
	StabilizeEvery time.Duration
	// Distance, when non-nil, estimates one-way delay to a peer and is
	// passed through to the constituent engines to seed suppression
	// timers.
	Distance func(id.Node) time.Duration
	// Metrics, when non-nil, receives live counters from the relay layer
	// (hier.*) and the constituent engines (rmcast.local.*, and
	// rmcast.wide.* on relays).
	Metrics *stats.Registry
	// Flight, when non-nil, records relay forwards and batch flushes as
	// well as the constituent engines' protocol events.
	Flight *flightrec.Recorder
}

// Engine is the hierarchical multicast stack for one node: an
// intra-cluster rmcast engine, plus — on relays — a wide-area rmcast
// engine over the relay set. It implements proto.Handler.
type Engine struct {
	env proto.Env
	cfg Config

	cluster int
	isRelay bool
	local   *rmcast.Engine
	wide    *rmcast.Engine // nil on non-relay nodes

	// Aggregated own-cluster forwards awaiting the tick's relay batch:
	// packed batch entries plus their count.
	fwdBuf   []byte
	fwdCount int

	// Overlay-formation state (AutoHier only).
	form            *former
	prober          *clocksync.Engine // nil unless AutoHier built one
	epoch           uint64            // installed topology epoch
	installedLeader id.Node           // leader that announced it
	sentSeq         uint64            // own origin sequence counter
	sentLog         [][]byte          // ring of own recent envelopes
	origins         map[id.Node]*originState
	forwarded       map[origKey]bool // per-epoch forward-once guard

	// Live relay-layer counters, resolved once in New.
	mForwards     *stats.Counter
	mBatchFlushes *stats.Counter
	mEarlyFlushes *stats.Counter
	mReshapes     *stats.Counter
	mInstalls     *stats.Counter
	mTakeovers    *stats.Counter
	mReports      *stats.Counter
	mReplays      *stats.Counter
}

// originState tracks per-origin contiguous delivery under AutoHier:
// reshapes replay recent traffic into the new tree, so the hierarchy
// dedups and reorders per origin before the application sees anything.
type originState struct {
	next    uint64 // next sequence to deliver (1-based)
	pending map[uint64][]byte
}

// origKey identifies one origin message for the relay's per-epoch
// forward-once guard.
type origKey struct {
	origin id.Node
	seq    uint64
}

var _ proto.Handler = (*Engine)(nil)

// Envelope encodings carried on the multicast channels. A single envelope
// wraps one origin message; a batch aggregates several envelopes into one
// relay-group datagram (and one intra-cluster re-multicast), which is how
// the hierarchy keeps per-message relay overhead down.
const (
	// envSingle tags one origin message:
	// tag (1) | origin node (8) | origin seq (8) | payload.
	envSingle byte = 1
	// envBatch tags an aggregated forward:
	// tag (1) | count (4) | { origin (8) | seq (8) | len (4) | payload }*.
	envBatch byte = 2
)

const (
	envelopeHeader  = 1 + 8 + 8
	batchHeader     = 1 + 4
	batchEntryExtra = 8 + 8 + 4
	// fwdFlushBytes caps the entry bytes of one forward batch so the
	// whole relay datagram stays well under the 64 KiB UDP limit.
	fwdFlushBytes = 48 * 1024
)

func packEnvelope(origin id.Node, seq uint64, payload []byte) []byte {
	buf := make([]byte, envelopeHeader+len(payload))
	buf[0] = envSingle
	binary.BigEndian.PutUint64(buf[1:], uint64(origin))
	binary.BigEndian.PutUint64(buf[9:], seq)
	copy(buf[envelopeHeader:], payload)
	return buf
}

func unpackEnvelope(buf []byte) (origin id.Node, seq uint64, payload []byte, err error) {
	if len(buf) < envelopeHeader || buf[0] != envSingle {
		return 0, 0, nil, ErrBadEnvelope
	}
	origin = id.Node(binary.BigEndian.Uint64(buf[1:]))
	seq = binary.BigEndian.Uint64(buf[9:])
	return origin, seq, buf[envelopeHeader:], nil
}

// appendBatchEntry appends one single-envelope's content as a batch entry.
func appendBatchEntry(dst []byte, env []byte) []byte {
	var n [8]byte
	dst = append(dst, env[1:envelopeHeader]...) // origin + seq
	binary.BigEndian.PutUint32(n[:4], uint32(len(env)-envelopeHeader))
	dst = append(dst, n[:4]...)
	return append(dst, env[envelopeHeader:]...)
}

// packBatch frames previously appended batch entries into one payload.
func packBatch(entries []byte, count int) []byte {
	buf := make([]byte, 0, batchHeader+len(entries))
	buf = append(buf, envBatch)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(count))
	buf = append(buf, n[:]...)
	return append(buf, entries...)
}

// forEachBatchEntry decodes a batch payload, invoking fn per envelope.
func forEachBatchEntry(buf []byte, fn func(origin id.Node, seq uint64, payload []byte)) error {
	if len(buf) < batchHeader || buf[0] != envBatch {
		return ErrBadEnvelope
	}
	count := int(binary.BigEndian.Uint32(buf[1:]))
	off := batchHeader
	for i := 0; i < count; i++ {
		if len(buf) < off+batchEntryExtra {
			return ErrBadEnvelope
		}
		origin := id.Node(binary.BigEndian.Uint64(buf[off:]))
		seq := binary.BigEndian.Uint64(buf[off+8:])
		plen := int(binary.BigEndian.Uint32(buf[off+16:]))
		off += batchEntryExtra
		if plen < 0 || len(buf) < off+plen {
			return ErrBadEnvelope
		}
		fn(origin, seq, buf[off:off+plen])
		off += plen
	}
	return nil
}

// New builds the hierarchical engine for env.Self(). Under the static
// configuration views are installed immediately from cfg.Topology; under
// AutoHier the node bootstraps as a singleton cluster at epoch 1 and the
// formation protocol grows the overlay from there.
func New(env proto.Env, cfg Config) (*Engine, error) {
	if cfg.Ordering == 0 {
		cfg.Ordering = rmcast.FIFO
	}
	if cfg.LocalGroup == cfg.WideGroup {
		return nil, fmt.Errorf("hier: local and wide group IDs must differ (%s)", cfg.LocalGroup)
	}
	ci := -1
	if cfg.AutoHier {
		if cfg.FanOut <= 0 {
			cfg.FanOut = DefaultFanOut
		}
		cfg.Form.defaults()
		if cfg.ClockGroup != 0 &&
			(cfg.ClockGroup == cfg.LocalGroup || cfg.ClockGroup == cfg.WideGroup) {
			return nil, fmt.Errorf("hier: clock group must differ from local/wide (%s)", cfg.ClockGroup)
		}
	} else {
		ci = cfg.Topology.ClusterOf(env.Self())
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotInTopology, env.Self())
		}
	}
	e := &Engine{
		env:           env,
		cfg:           cfg,
		cluster:       ci,
		mForwards:     &stats.Counter{},
		mBatchFlushes: &stats.Counter{},
		mEarlyFlushes: &stats.Counter{},
		mReshapes:     &stats.Counter{},
		mInstalls:     &stats.Counter{},
		mTakeovers:    &stats.Counter{},
		mReports:      &stats.Counter{},
		mReplays:      &stats.Counter{},
	}
	if cfg.Metrics != nil {
		e.mForwards = cfg.Metrics.Counter("hier.relay_forwards")
		e.mBatchFlushes = cfg.Metrics.Counter("hier.batch_flushes")
		e.mEarlyFlushes = cfg.Metrics.Counter("hier.early_flushes")
		e.mReshapes = cfg.Metrics.Counter("hier.reshapes")
		e.mInstalls = cfg.Metrics.Counter("hier.topo_installs")
		e.mTakeovers = cfg.Metrics.Counter("hier.leader_takeovers")
		e.mReports = cfg.Metrics.Counter("hier.reports_sent")
		e.mReplays = cfg.Metrics.Counter("hier.replays")
	}
	if cfg.AutoHier {
		e.origins = make(map[id.Node]*originState)
		e.forwarded = make(map[origKey]bool)
		if e.cfg.Distance == nil && cfg.ClockGroup != 0 {
			e.prober = clocksync.New(env, clocksync.Config{
				Group:           cfg.ClockGroup,
				ProbeEvery:      cfg.Form.ProbeEvery,
				Peers:           cfg.Members,
				DefaultDistance: formDistance,
			})
			e.cfg.Distance = e.prober.Distance
		}
	}
	e.local = rmcast.New(env, rmcast.Config{
		Group:          cfg.LocalGroup,
		Ordering:       cfg.Ordering,
		OnDeliver:      e.onLocalDeliver,
		StabilizeEvery: cfg.StabilizeEvery,
		Distance:       e.cfg.Distance,
		Metrics:        cfg.Metrics,
		MetricsPrefix:  "rmcast.local.",
		Flight:         cfg.Flight,
	})
	if cfg.AutoHier {
		self := env.Self()
		e.installTopology(1, self, Topology{Clusters: [][]id.Node{{self}}})
		e.form = newFormer(e, e.cfg.Form, cfg.Members)
	} else {
		e.isRelay = cfg.Topology.RelayOf(ci) == env.Self()
		e.local.SetView(member.NewView(1, cfg.Topology.Clusters[ci]))
		if e.isRelay {
			e.wide = e.newWide()
			e.wide.SetView(member.NewView(1, cfg.Topology.Relays()))
		}
	}
	return e, nil
}

// newWide builds the relay-set rmcast engine; relays get one at
// construction (static) or promotion (AutoHier).
func (e *Engine) newWide() *rmcast.Engine {
	return rmcast.New(e.env, rmcast.Config{
		Group:          e.cfg.WideGroup,
		Ordering:       rmcast.FIFO,
		OnDeliver:      e.onWideDeliver,
		StabilizeEvery: e.cfg.StabilizeEvery,
		Distance:       e.cfg.Distance,
		Metrics:        e.cfg.Metrics,
		MetricsPrefix:  "rmcast.wide.",
		Flight:         e.cfg.Flight,
	})
}

// IsRelay reports whether this node relays for its cluster.
func (e *Engine) IsRelay() bool { return e.isRelay }

// Counters returns the constituent engines' counters summed — the local
// engine's plus, on relays, the wide engine's. Sent/Delivered count raw
// engine traffic (envelopes and relay forwards included), so they exceed
// the application message counts; the recovery counters (NacksSent,
// NacksServed, suppression) aggregate cleanly.
func (e *Engine) Counters() rmcast.Counters {
	c := e.local.Counters()
	if e.wide != nil {
		w := e.wide.Counters()
		c.Sent += w.Sent
		c.Delivered += w.Delivered
		c.Duplicates += w.Duplicates
		c.NacksSent += w.NacksSent
		c.NacksServed += w.NacksServed
		c.Retransmits += w.Retransmits
		c.FlushResends += w.FlushResends
		c.OrdersSent += w.OrdersSent
		c.PiggyAcks += w.PiggyAcks
		c.GossipAcks += w.GossipAcks
		c.NacksSuppressed += w.NacksSuppressed
		c.RepairsSuppressed += w.RepairsSuppressed
		c.LocalRepairs += w.LocalRepairs
	}
	return c
}

// Multicast sends payload to the whole hierarchical group.
func (e *Engine) Multicast(payload []byte) error {
	// The origin sequence is a private per-engine counter, wrapped around
	// the payload first so the envelope travels with the message
	// everywhere. The local engine's send count would not do: it also
	// covers relay re-multicasts and reshape replays, which would gap the
	// per-origin contiguous space, and it lives in the metrics registry,
	// which engines may share.
	env := packEnvelope(e.env.Self(), e.sentSeq+1, payload)
	if err := e.local.Multicast(env); err != nil {
		return fmt.Errorf("intra-cluster multicast: %w", err)
	}
	e.sentSeq++
	if e.cfg.AutoHier {
		// Log the envelope for replay into the next reshaped tree; the
		// receivers' dedup makes the replay idempotent.
		e.sentLog = append(e.sentLog, env)
		if len(e.sentLog) > replayLog {
			e.sentLog = e.sentLog[1:]
		}
	}
	return nil
}

// onLocalDeliver handles a message arriving on the intra-cluster channel:
// deliver it to the application, and — on the origin cluster's relay —
// queue it for the tick's aggregated forward to the other relays. Batches
// re-multicast by a relay deliver each contained envelope; they never
// forward again (their origins are in other clusters by construction).
func (e *Engine) onLocalDeliver(d rmcast.Delivery) {
	if len(d.Payload) > 0 && d.Payload[0] == envBatch {
		_ = forEachBatchEntry(d.Payload, func(origin id.Node, seq uint64, payload []byte) {
			e.deliverApp(origin, seq, payload)
		})
		return
	}
	origin, seq, payload, err := unpackEnvelope(d.Payload)
	if err != nil {
		return
	}
	e.deliverApp(origin, seq, payload)
	if !e.isRelay || e.wide == nil {
		return
	}
	// Forward only messages originating in our own cluster; messages
	// from other clusters arrived via the relay group already.
	if e.cfg.Topology.ClusterOf(origin) != e.cluster {
		return
	}
	if e.cfg.AutoHier {
		// Reshape replays re-deliver old traffic on the local channel;
		// forward each origin message over the relay set at most once per
		// installed topology (receivers dedup the rest).
		k := origKey{origin: origin, seq: seq}
		if e.forwarded[k] {
			return
		}
		e.forwarded[k] = true
	}
	e.mForwards.Inc()
	e.rec(flightrec.EvRelayForward, uint64(e.cluster), seq)
	// Aggregate; flush early if the batch would outgrow one datagram.
	if len(e.fwdBuf) > 0 &&
		len(e.fwdBuf)+batchEntryExtra+len(d.Payload) > fwdFlushBytes {
		e.mEarlyFlushes.Inc()
		e.flushForwards()
	}
	e.fwdBuf = appendBatchEntry(e.fwdBuf, d.Payload)
	e.fwdCount++
}

func (e *Engine) deliverApp(origin id.Node, seq uint64, payload []byte) {
	if !e.cfg.AutoHier {
		e.deliverOne(origin, seq, payload)
		return
	}
	// AutoHier: per-origin contiguous delivery. Reshapes replay recent
	// traffic into the new tree, so the same (origin, seq) can arrive
	// many times and out of order; the hierarchy delivers each exactly
	// once, in origin order.
	st := e.origins[origin]
	if st == nil {
		st = &originState{next: 1, pending: make(map[uint64][]byte)}
		e.origins[origin] = st
	}
	switch {
	case seq < st.next:
		return // already delivered
	case seq > st.next:
		if _, ok := st.pending[seq]; !ok {
			st.pending[seq] = append([]byte(nil), payload...)
		}
		return
	}
	e.deliverOne(origin, seq, payload)
	st.next++
	for {
		p, ok := st.pending[st.next]
		if !ok {
			return
		}
		delete(st.pending, st.next)
		e.deliverOne(origin, st.next, p)
		st.next++
	}
}

func (e *Engine) deliverOne(origin id.Node, seq uint64, payload []byte) {
	if e.cfg.OnDeliver == nil {
		return
	}
	e.cfg.OnDeliver(Delivery{
		Group:   e.cfg.LocalGroup,
		Origin:  origin,
		Seq:     seq,
		Payload: payload,
	})
}

// rec stamps one flight-recorder event; free without a recorder.
func (e *Engine) rec(code flightrec.Code, a, b uint64) {
	if e.cfg.Flight != nil {
		e.cfg.Flight.Record(uint64(e.env.Self()), e.env.Now().UnixMilli(), code, a, b)
	}
}

// flushForwards sends the queued own-cluster messages to the other relays
// as one batch.
func (e *Engine) flushForwards() {
	if e.fwdCount == 0 {
		return
	}
	e.mBatchFlushes.Inc()
	e.rec(flightrec.EvBatchFlush, uint64(e.fwdCount), uint64(len(e.fwdBuf)))
	batch := packBatch(e.fwdBuf, e.fwdCount)
	e.fwdBuf = e.fwdBuf[:0]
	e.fwdCount = 0
	_ = e.wide.Multicast(batch)
}

// onWideDeliver handles a message arriving on the relay channel:
// re-multicast it into the local cluster verbatim — one local multicast
// per batch (the relay's own delivery happens through that local
// multicast, keeping per-cluster order uniform).
func (e *Engine) onWideDeliver(d rmcast.Delivery) {
	if d.Sender == e.env.Self() {
		return // our own forward echoed back; cluster already has it
	}
	_ = e.local.Multicast(d.Payload)
}

// installTopology adopts a formation topology: install the matching
// cluster and relay-set views, promote or demote the wide engine, and
// replay this node's recent sends into the fresh tree — the recovery
// path for traffic that was in flight across the reshape (the per-origin
// dedup in deliverApp makes the replay idempotent).
func (e *Engine) installTopology(epoch uint64, leader id.Node, topo Topology) {
	if e.epoch != 0 && epoch == e.epoch && leader == e.installedLeader {
		return
	}
	e.epoch = epoch
	e.installedLeader = leader
	ci := topo.ClusterOf(e.env.Self())
	e.rec(flightrec.EvTopoInstall, epoch, uint64(ci+1))
	e.mInstalls.Inc()
	if ci < 0 {
		// The leader hasn't admitted us (yet): keep the current tree and
		// keep reporting; our reports force a membership reshape.
		return
	}
	e.cfg.Topology = topo
	e.cluster = ci
	wasRelay := e.isRelay
	e.isRelay = topo.RelayOf(ci) == e.env.Self()
	// Pending forwards and the forward-once guard belong to the old tree.
	// Cleared BEFORE the view installs: SetView synchronously replays
	// buffered newer-view traffic into onLocalDeliver, and those replays
	// must be forwarded afresh in this epoch even if the old tree already
	// forwarded them.
	e.fwdBuf = e.fwdBuf[:0]
	e.fwdCount = 0
	e.forwarded = make(map[origKey]bool)
	// Promotion/demotion likewise precedes the local view install, so the
	// replayed deliveries see the correct relay role: a fresh relay must
	// queue their forwards (the engine exists; its view lands just
	// below), and a demoted one must not touch the stale wide engine.
	if e.isRelay && e.wide == nil {
		e.wide = e.newWide()
	} else if !e.isRelay && e.wide != nil {
		e.wide = nil
		e.rec(flightrec.EvRelayDemote, epoch, 0)
	}
	e.local.SetView(member.NewView(id.View(epoch), topo.Clusters[ci]))
	if e.isRelay {
		// Installed after the local view so the wide buffer's replayed
		// batches re-multicast into the NEW cluster view, not the old.
		e.wide.SetView(member.NewView(id.View(epoch), topo.Relays()))
		if !wasRelay {
			e.rec(flightrec.EvRelayPromote, epoch, 0)
		}
	}
	for _, env := range e.sentLog {
		if e.local.Multicast(env) == nil {
			e.mReplays.Inc()
		}
	}
	if e.cfg.Form.OnInstall != nil {
		e.cfg.Form.OnInstall(epoch, leader, topo)
	}
}

// Epoch returns the installed topology epoch (0 when static).
func (e *Engine) Epoch() uint64 { return e.epoch }

// Leader returns the believed formation leader (id.None when static).
func (e *Engine) Leader() id.Node {
	if e.form == nil {
		return id.None
	}
	return e.form.leader
}

// CurrentTopology returns the topology in effect.
func (e *Engine) CurrentTopology() Topology { return e.cfg.Topology }

// PeerDistance returns the engine's one-way distance estimate to peer —
// the prober's matrix entry under AutoHier, or whatever Distance was
// configured. Zero without an estimator, which distance consumers treat
// as "unknown, use defaults".
func (e *Engine) PeerDistance(p id.Node) time.Duration {
	if e.cfg.Distance == nil {
		return 0
	}
	return e.cfg.Distance(p)
}

// SetMembers replaces the known member universe under AutoHier, feeding
// both the prober's probe set and the formation leader belief. A no-op
// for static engines.
func (e *Engine) SetMembers(ms []id.Node) {
	if e.form == nil {
		return
	}
	if e.prober != nil {
		e.prober.SetPeers(ms)
	}
	e.form.setUniverse(ms)
}

func (e *Engine) fanOut() int {
	if e.cfg.FanOut > 0 {
		return e.cfg.FanOut
	}
	return DefaultFanOut
}

// OnMessage routes datagrams to the constituent engines by group, with
// formation control and clock probes peeled off first.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	if e.form != nil && msg.Kind == wire.KindHierCtl && msg.Group == e.cfg.LocalGroup {
		e.form.onCtl(from, msg)
		return
	}
	if e.prober != nil && msg.Group == e.cfg.ClockGroup {
		e.prober.OnMessage(from, msg)
		return
	}
	switch msg.Group {
	case e.cfg.LocalGroup:
		e.local.OnMessage(from, msg)
	case e.cfg.WideGroup:
		if e.wide != nil {
			e.wide.OnMessage(from, msg)
		}
	}
}

// OnTick flushes the pending relay batch and drives the constituent
// engines plus, under AutoHier, the prober and the formation machine.
func (e *Engine) OnTick(now time.Time) {
	if e.prober != nil {
		e.prober.OnTick(now)
	}
	if e.form != nil {
		e.form.tick(now)
	}
	if e.isRelay && e.wide != nil {
		e.flushForwards()
	}
	e.local.OnTick(now)
	if e.wide != nil {
		e.wide.OnTick(now)
	}
}
