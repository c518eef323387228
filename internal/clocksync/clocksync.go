// Package clocksync implements the clock-synchronization substrate of the
// architecture: a Cristian-style probe/reply protocol that estimates the
// offset between a node's local clock and a reference node's clock. The
// media layers need loosely synchronized clocks to compare capture
// timestamps across hosts; the early-90s systems this architecture
// belongs to ran exactly this kind of software synchronization (DCE DTS,
// Cristian 1989) rather than assuming NTP everywhere.
//
// The engine periodically sends a timestamped probe to the reference,
// which answers with its local time; the client estimates
//
//	offset = localMidpoint − referenceTime
//
// and keeps the estimate from the lowest-RTT exchange in a sliding
// window, the standard filter against asymmetric queueing delay.
//
// Because the simulator gives every node the same virtual clock, a
// configurable LocalSkew models a skewed local oscillator; live
// deployments leave it zero and measure real offsets.
//
// Beyond the single reference, the engine can maintain a per-peer
// distance matrix: given a probe set (Config.Peers or SetPeers), it
// round-robins the same probe/reply exchange across the peers and keeps
// a min-RTT window per peer, so Distance(peer) answers with that peer's
// half round trip instead of one group-wide estimate. The overlay
// formation layer (internal/hier) builds latency-near clusters from this
// matrix, and the loss-recovery suppression timers (internal/rmcast)
// scale to each peer's true distance. Samples older than StaleAfter are
// shed, so a peer whose path changed — or died — decays back to the
// fallback estimate instead of pinning a stale figure forever.
package clocksync

import (
	"encoding/binary"
	"sort"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// Defaults and constants.
const (
	DefaultProbeEvery = 250 * time.Millisecond
	DefaultWindow     = 8
	// DefaultStaleFactor scales ProbeEvery into the default StaleAfter:
	// a peer unmeasured for this many probe periods loses its samples.
	DefaultStaleFactor = 20
	// probesPerTick caps how many matrix peers are probed per probe
	// period (round-robin across the set).
	probesPerTick = 8
)

// Config parameterizes an Engine.
type Config struct {
	// Group scopes the protocol traffic.
	Group id.Group
	// Reference is the node whose clock is truth. A node with itself as
	// reference only serves replies.
	Reference id.Node
	// ProbeEvery is the probing period. Defaults to DefaultProbeEvery.
	ProbeEvery time.Duration
	// Window is the sample window size for the min-RTT filter.
	// Defaults to DefaultWindow.
	Window int
	// LocalSkew offsets this node's local clock from the runtime clock,
	// simulating oscillator skew under virtual time.
	LocalSkew time.Duration

	// Peers seeds the per-peer distance matrix's probe set; SetPeers
	// replaces it at runtime. Empty means no matrix probing — the engine
	// behaves exactly as the single-reference synchronizer.
	Peers []id.Node
	// StaleAfter drops matrix samples older than this, so dead or moved
	// peers decay back to the fallback estimate. Defaults to
	// DefaultStaleFactor × ProbeEvery.
	StaleAfter time.Duration
	// DefaultDistance is what Distance returns for a peer with no fresh
	// samples when no reference estimate exists either. Zero keeps the
	// historical behavior (caller applies its own default).
	DefaultDistance time.Duration
}

// sample is one completed probe exchange.
type sample struct {
	offset time.Duration
	rtt    time.Duration
}

// peerSample is one matrix exchange with its completion time, so stale
// entries can be decayed.
type peerSample struct {
	rtt time.Duration
	at  time.Time
}

// probe is one in-flight exchange: who it went to and when.
type probe struct {
	to id.Node
	at time.Time
}

// Engine is the per-node synchronization state machine. It implements
// proto.Handler.
type Engine struct {
	env proto.Env
	cfg Config

	nonce     uint64
	inFlight  map[uint64]probe // nonce -> in-flight exchange
	samples   []sample
	lastProbe time.Time

	// Per-peer distance matrix state.
	peers    []id.Node // sorted probe rotation, self excluded
	peerIdx  int
	matrix   map[id.Node][]peerSample
	lastSeen map[id.Node]time.Time

	exchanges uint64
}

var _ proto.Handler = (*Engine)(nil)

// New returns a synchronization engine.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = DefaultStaleFactor * cfg.ProbeEvery
	}
	e := &Engine{
		env:      env,
		cfg:      cfg,
		inFlight: make(map[uint64]probe),
		matrix:   make(map[id.Node][]peerSample),
		lastSeen: make(map[id.Node]time.Time),
	}
	e.SetPeers(cfg.Peers)
	return e
}

// SetPeers replaces the matrix probe set. Self is excluded; the rotation
// is kept sorted so probing order is deterministic. Samples for departed
// peers are dropped immediately.
func (e *Engine) SetPeers(ps []id.Node) {
	keep := make(map[id.Node]bool, len(ps))
	e.peers = e.peers[:0]
	for _, p := range ps {
		if p == id.None || p == e.env.Self() || keep[p] {
			continue
		}
		keep[p] = true
		e.peers = append(e.peers, p)
	}
	sort.Slice(e.peers, func(i, j int) bool { return e.peers[i] < e.peers[j] })
	for p := range e.matrix {
		if !keep[p] {
			delete(e.matrix, p)
			delete(e.lastSeen, p)
		}
	}
}

// localNow returns the node's (possibly skewed) local clock.
func (e *Engine) localNow() time.Time { return e.env.Now().Add(e.cfg.LocalSkew) }

// Offset returns the estimated local-minus-reference clock offset and
// whether any exchange has completed. A perfectly synchronized clock has
// offset zero; a fast local clock has a positive offset.
func (e *Engine) Offset() (time.Duration, bool) {
	if len(e.samples) == 0 {
		return 0, false
	}
	best := e.samples[0]
	for _, s := range e.samples[1:] {
		if s.rtt < best.rtt {
			best = s
		}
	}
	return best.offset, true
}

// Now returns the local clock corrected onto the reference timeline.
// Before the first exchange it returns the uncorrected local clock.
func (e *Engine) Now() time.Time {
	off, ok := e.Offset()
	if !ok {
		return e.localNow()
	}
	return e.localNow().Add(-off)
}

// Exchanges returns how many probe round trips have completed.
func (e *Engine) Exchanges() uint64 { return e.exchanges }

// RTT returns the lowest round-trip time in the sample window and
// whether any exchange has completed. The minimum is the least
// queue-inflated estimate of the true path delay, the same filter the
// offset estimate uses.
func (e *Engine) RTT() (time.Duration, bool) {
	if len(e.samples) == 0 {
		return 0, false
	}
	best := e.samples[0].rtt
	for _, s := range e.samples[1:] {
		if s.rtt < best {
			best = s.rtt
		}
	}
	return best, true
}

// decayPeer sheds samples older than StaleAfter and returns the fresh
// window for the peer.
func (e *Engine) decayPeer(n id.Node) []peerSample {
	ss := e.matrix[n]
	if len(ss) == 0 {
		return nil
	}
	cutoff := e.localNow().Add(-e.cfg.StaleAfter)
	fresh := ss[:0]
	for _, s := range ss {
		if s.at.After(cutoff) {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) == 0 {
		delete(e.matrix, n)
		return nil
	}
	e.matrix[n] = fresh
	return fresh
}

// PeerRTT returns the lowest fresh round-trip estimate for one matrix
// peer, or false if no unexpired sample exists.
func (e *Engine) PeerRTT(n id.Node) (time.Duration, bool) {
	ss := e.decayPeer(n)
	if len(ss) == 0 {
		return 0, false
	}
	best := ss[0].rtt
	for _, s := range ss[1:] {
		if s.rtt < best {
			best = s.rtt
		}
	}
	return best, true
}

// Distance adapts the matrix to the distance hooks of the overlay
// formation layer (hier.Config.Distance) and the loss-recovery layer
// (rmcast.Config.Distance): half the best fresh round trip to that
// specific peer. A peer with no fresh samples falls back to the
// reference-based estimate (half the best round trip to the reference —
// the pre-matrix behavior, reasonable within one cluster), and before
// any exchange at all it falls back to Config.DefaultDistance (zero by
// default, letting the caller apply its own).
func (e *Engine) Distance(n id.Node) time.Duration {
	if rtt, ok := e.PeerRTT(n); ok {
		return rtt / 2
	}
	if rtt, ok := e.RTT(); ok {
		return rtt / 2
	}
	return e.cfg.DefaultDistance
}

// OnMessage serves probes and consumes replies.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Group != e.cfg.Group {
		return
	}
	switch msg.Kind {
	case wire.KindClockProbe:
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], uint64(e.localNow().UnixNano()))
		e.env.Send(from, &wire.Message{
			Kind:  wire.KindClockReply,
			Group: e.cfg.Group,
			Aux:   msg.Aux, // echo nonce
			Body:  body[:],
		})
	case wire.KindClockReply:
		p, ok := e.inFlight[msg.Aux]
		if !ok || p.to != from || len(msg.Body) < 8 {
			return
		}
		delete(e.inFlight, msg.Aux)
		t1 := e.localNow()
		refTime := time.Unix(0, int64(binary.BigEndian.Uint64(msg.Body)))
		rtt := t1.Sub(p.at)
		if rtt < 0 {
			return
		}
		if from == e.cfg.Reference {
			mid := p.at.Add(rtt / 2)
			e.samples = append(e.samples, sample{offset: mid.Sub(refTime), rtt: rtt})
			if len(e.samples) > e.cfg.Window {
				e.samples = e.samples[1:]
			}
		}
		// Every completed exchange — reference or matrix peer — feeds the
		// per-peer distance matrix.
		ss := append(e.decayPeer(from), peerSample{rtt: rtt, at: t1})
		if len(ss) > e.cfg.Window {
			ss = ss[1:]
		}
		e.matrix[from] = ss
		e.lastSeen[from] = t1
		e.exchanges++
	}
}

// sendProbe emits one probe exchange to the target.
func (e *Engine) sendProbe(to id.Node) {
	e.nonce++
	e.inFlight[e.nonce] = probe{to: to, at: e.localNow()}
	e.env.Send(to, &wire.Message{
		Kind:  wire.KindClockProbe,
		Group: e.cfg.Group,
		Aux:   e.nonce,
	})
}

// OnTick emits due probes — the reference exchange plus a round-robin
// slice of the matrix peer set — and expires stale ones.
func (e *Engine) OnTick(now time.Time) {
	probeRef := e.cfg.Reference != id.None && e.cfg.Reference != e.env.Self()
	if !probeRef && len(e.peers) == 0 {
		return
	}
	if now.Sub(e.lastProbe) < e.cfg.ProbeEvery {
		return
	}
	e.lastProbe = now
	// Expire probes older than two periods: their replies are lost.
	for nonce, p := range e.inFlight {
		if e.localNow().Sub(p.at) > 2*e.cfg.ProbeEvery {
			delete(e.inFlight, nonce)
		}
	}
	if probeRef {
		e.sendProbe(e.cfg.Reference)
	}
	n := len(e.peers)
	if n == 0 {
		return
	}
	budget := min(probesPerTick, n)
	for i := 0; i < budget; i++ {
		p := e.peers[e.peerIdx%n]
		e.peerIdx++
		if probeRef && p == e.cfg.Reference {
			continue // already probed this round
		}
		e.sendProbe(p)
	}
}
