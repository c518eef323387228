// Package rtx is the real-time media transport of the architecture: an
// RTP-like unreliable channel for timestamped media frames, with receiver
// jitter estimation and a playout buffer supporting fixed and adaptive
// playout delay.
//
// Media traffic is deliberately *not* sent through the reliable multicast
// layer: retransmission is useless for data whose playout deadline has
// passed. Instead, frames travel as single best-effort datagrams
// (wire.KindMedia), and the receiver trades latency for loss with its
// playout buffer:
//
//   - Fixed mode plays every frame at capture time + a constant delay.
//   - Adaptive mode (the Ramjee et al. algorithm the multimedia
//     literature of the era standardized on) tracks the network delay
//     mean and variation with exponential averages and re-targets the
//     playout delay at talkspurt boundaries to mean + K·variation.
//
// Frames that arrive after their playout point are late and discarded
// (counted), exactly like a real conferencing receiver.
package rtx

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"scalamedia/internal/fec"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/frag"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// PlayoutMode selects the playout-delay policy.
type PlayoutMode int

// The playout modes.
const (
	// FixedDelay plays frames at capture + Config.PlayoutDelay.
	FixedDelay PlayoutMode = iota + 1
	// Adaptive re-estimates the playout delay per talkspurt from
	// measured delay and jitter.
	Adaptive
)

// Alpha is the exponential-average gain of the delay estimator, the
// classic 31/32 value.
const Alpha = 31.0 / 32.0

// DefaultSafetyFactor is the K in playout = delay + K * variation.
const DefaultSafetyFactor = 4.0

// Sender transmits a stream's frames to a set of receivers. It is not a
// proto.Handler (it has no inbound traffic); drive it from the event loop
// by calling Send.
type Sender struct {
	env     proto.Env
	group   id.Group
	spec    media.StreamSpec
	peers   []id.Node
	seq     uint64
	sent    uint64
	bytes   uint64
	policer Policer
	fecEnc  *fec.Encoder
	maxFrag int
	reports map[id.Node]Report
}

// Policer optionally rate-limits a sender; see the qos package for the
// token-bucket implementation. A nil policer admits everything.
type Policer interface {
	// Admit reports whether a frame of the given size may be sent now.
	Admit(bytes int, now time.Time) bool
}

// NewSender returns a sender for one stream.
func NewSender(env proto.Env, group id.Group, spec media.StreamSpec) *Sender {
	return &Sender{env: env, group: group, spec: spec}
}

// SetPeers replaces the receiver set (copied).
func (s *Sender) SetPeers(peers []id.Node) {
	s.peers = make([]id.Node, 0, len(peers))
	for _, p := range peers {
		if p != s.env.Self() {
			s.peers = append(s.peers, p)
		}
	}
}

// SetPolicer installs a QoS policer; frames it rejects are dropped at the
// sender (counted as policed, not sent).
func (s *Sender) SetPolicer(p Policer) { s.policer = p }

// SetFEC enables forward error correction: after every k data packets
// the sender emits one XOR parity packet, letting receivers repair a
// single loss per block without a retransmission round trip. Pass k in
// [2, fec.MaxBlock]; the receiver must be configured with the same k.
func (s *Sender) SetFEC(k int) error {
	enc, err := fec.NewEncoder(k)
	if err != nil {
		return fmt.Errorf("sender fec: %w", err)
	}
	s.fecEnc = enc
	return nil
}

// SetMaxFragment enables frame fragmentation: frames larger than n bytes
// are split into packets sharing the frame timestamp, first flagged
// FragStart, last flagged Marker (RTP video packetization). Receivers
// must set Config.Reassemble. Pass n <= 0 to disable.
func (s *Sender) SetMaxFragment(n int) { s.maxFrag = n }

// Stats returns frames sent and payload bytes sent.
func (s *Sender) Stats() (frames, bytes uint64) { return s.sent, s.bytes }

// Send transmits one frame to every peer, fragmenting it if a fragment
// limit is set. Returns false if the policer rejected it.
func (s *Sender) Send(f media.Frame) bool {
	if s.policer != nil && !s.policer.Admit(len(f.Data), s.env.Now()) {
		return false
	}
	if s.maxFrag > 0 && len(f.Data) > s.maxFrag {
		chunks, err := frag.Split(f.Data, s.maxFrag)
		if err != nil {
			return false
		}
		for i, chunk := range chunks {
			var flags uint8
			if i == 0 {
				flags |= wire.FlagFragStart
			}
			if i == len(chunks)-1 {
				flags |= wire.FlagMarker
			}
			s.emit(f.TS, flags, chunk)
		}
	} else {
		var flags uint8
		if f.Marker {
			flags |= wire.FlagMarker
		}
		if s.maxFrag > 0 {
			// Single-fragment frame under reassembly: bracket it.
			flags |= wire.FlagFragStart | wire.FlagMarker
		}
		s.emit(f.TS, flags, f.Data)
	}
	s.sent++
	s.bytes += uint64(len(f.Data))
	return true
}

// emit sends one media packet to every peer and feeds the FEC encoder.
func (s *Sender) emit(ts uint32, flags uint8, payload []byte) {
	s.seq++
	for _, p := range s.peers {
		s.env.Send(p, &wire.Message{
			Kind:    wire.KindMedia,
			Flags:   flags,
			Group:   s.group,
			Sender:  s.env.Self(),
			Seq:     s.seq,
			Stream:  s.spec.ID,
			MediaTS: ts,
			Body:    payload,
		})
	}
	if s.fecEnc != nil {
		if parity, first, done := s.fecEnc.Add(s.seq, packFECUnit(ts, flags, payload)); done {
			for _, p := range s.peers {
				s.env.Send(p, &wire.Message{
					Kind:   wire.KindMedia,
					Flags:  wire.FlagParity,
					Group:  s.group,
					Sender: s.env.Self(),
					Seq:    first,
					Stream: s.spec.ID,
					Body:   parity,
				})
			}
		}
	}
}

// packFECUnit wraps a media packet's recoverable fields (timestamp,
// flags, payload) for FEC protection, so a reconstructed packet replays
// through the normal receive path.
func packFECUnit(ts uint32, flags uint8, payload []byte) []byte {
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, ts)
	buf[4] = flags
	copy(buf[5:], payload)
	return buf
}

// unpackFECUnit reverses packFECUnit.
func unpackFECUnit(buf []byte) (ts uint32, flags uint8, payload []byte, ok bool) {
	if len(buf) < 5 {
		return 0, 0, nil, false
	}
	return binary.BigEndian.Uint32(buf), buf[4], buf[5:], true
}

// Stats summarizes a receiver's behaviour for the experiments.
type Stats struct {
	Received  uint64 // frames that arrived
	Played    uint64 // frames handed to OnPlay on time
	Late      uint64 // frames that missed their playout point
	Lost      uint64 // sequence gaps never filled
	Recovered uint64 // frames reconstructed from FEC parity
	// FramesIncomplete counts fragmented frames dropped for missing
	// fragments (reassembly mode).
	FramesIncomplete uint64
	// QueueDropped counts frames evicted from a bounded playout buffer
	// (Config.MaxBuffered) to make room for newer arrivals.
	QueueDropped uint64
	// DelayEstimate and JitterEstimate are the current exponential
	// averages in milliseconds.
	DelayEstimate  float64
	JitterEstimate float64
	// PlayoutDelay is the delay currently applied to new talkspurts.
	PlayoutDelay time.Duration
}

// Config parameterizes a Receiver.
type Config struct {
	// Group and Stream select which media traffic this receiver
	// consumes.
	Group  id.Group
	Stream id.Stream
	// Spec is the stream description (clock rate).
	Spec media.StreamSpec
	// Mode selects fixed or adaptive playout. Defaults to Adaptive.
	Mode PlayoutMode
	// PlayoutDelay is the fixed-mode delay, and the initial delay in
	// adaptive mode. Defaults to 100ms.
	PlayoutDelay time.Duration
	// SafetyFactor is the adaptive K. Defaults to DefaultSafetyFactor.
	SafetyFactor float64
	// FECBlock enables FEC repair with the sender's block size; zero
	// disables it. Must match Sender.SetFEC.
	FECBlock int
	// Reassemble enables fragmented-frame reassembly; required when the
	// sender uses SetMaxFragment. Implies video-style marker semantics
	// (marker = end of frame).
	Reassemble bool
	// MaxBuffered bounds the playout buffer in frames. When an arrival
	// would exceed the bound, the oldest buffered frame is dropped
	// (drop-oldest: a late-ish frame is worth less than a fresh one) and
	// accounted in Stats.QueueDropped / media.queue_dropped. Zero means
	// unbounded, the historical behaviour.
	MaxBuffered int
	// OnPlay receives frames at their playout points, in timestamp
	// order. Called from the event loop.
	OnPlay func(f media.Frame, playedAt time.Time)
	// Metrics, when non-nil, receives live media counters (media.*).
	Metrics *stats.Registry
	// Flight, when non-nil, records late frames and playout drops.
	Flight *flightrec.Recorder
}

// pending is one buffered frame awaiting playout.
type pending struct {
	frame  media.Frame
	playAt time.Time
}

// heldRecovery is an FEC reconstruction held briefly before injection: a
// parity packet can overtake the final data packet of its block, so a
// "missing" packet may merely be in flight. The hold window lets the real
// copy win.
type heldRecovery struct {
	seq     uint64
	unit    []byte
	readyAt time.Time
}

// recoveryHold is how long a reconstruction waits for the real packet.
const recoveryHold = 10 * time.Millisecond

// Receiver reassembles and plays one media stream. It implements
// proto.Handler.
type Receiver struct {
	env proto.Env
	cfg Config

	started    bool
	base       time.Time // local time origin for capture mapping
	delayEst   float64   // seconds
	jitterEst  float64   // seconds
	spurtDelay time.Duration
	syncOffset time.Duration // inter-media sync steering, may be negative

	queue   []pending // sorted by playAt
	nextSeq uint64
	seen    map[uint64]bool // seqs already processed (dedupe vs FEC races)
	asm     *frag.Assembler
	fecDec  *fec.Decoder
	recHold []heldRecovery // FEC recoveries waiting out the reorder window

	// Receiver-report feedback state (see feedback.go).
	reportEvery time.Duration
	lastReport  time.Time
	lastSender  id.Node

	stats Stats

	// Live metric counters, resolved once in NewReceiver; mirrors of the
	// Stats fields for the runtime registry (nil registry = standalone).
	mRecv       *stats.Counter
	mPlayed     *stats.Counter
	mLate       *stats.Counter
	mLost       *stats.Counter
	mRecovered  *stats.Counter
	mQueueDrops *stats.Counter
}

var _ proto.Handler = (*Receiver)(nil)

// NewReceiver returns a receiver with an empty buffer.
func NewReceiver(env proto.Env, cfg Config) *Receiver {
	if cfg.Mode == 0 {
		cfg.Mode = Adaptive
	}
	if cfg.PlayoutDelay <= 0 {
		cfg.PlayoutDelay = 100 * time.Millisecond
	}
	if cfg.SafetyFactor <= 0 {
		cfg.SafetyFactor = DefaultSafetyFactor
	}
	r := &Receiver{
		env:         env,
		cfg:         cfg,
		spurtDelay:  cfg.PlayoutDelay,
		nextSeq:     1,
		seen:        make(map[uint64]bool),
		mRecv:       &stats.Counter{},
		mPlayed:     &stats.Counter{},
		mLate:       &stats.Counter{},
		mLost:       &stats.Counter{},
		mRecovered:  &stats.Counter{},
		mQueueDrops: &stats.Counter{},
	}
	if cfg.Metrics != nil {
		r.mRecv = cfg.Metrics.Counter("media.frames_recv")
		r.mPlayed = cfg.Metrics.Counter("media.frames_played")
		r.mLate = cfg.Metrics.Counter("media.late_frames")
		r.mLost = cfg.Metrics.Counter("media.frames_lost")
		r.mRecovered = cfg.Metrics.Counter("media.fec_recovered")
		r.mQueueDrops = cfg.Metrics.Counter("media.queue_dropped")
	}
	if cfg.FECBlock > 0 {
		// An invalid block size disables FEC rather than failing the
		// receiver; the data path works regardless.
		r.fecDec, _ = fec.NewDecoder(cfg.FECBlock)
	}
	if cfg.Reassemble {
		r.asm = frag.NewAssembler()
	}
	return r
}

// Stats returns a snapshot of the receiver statistics.
func (r *Receiver) Stats() Stats {
	s := r.stats
	s.DelayEstimate = r.delayEst * 1000
	s.JitterEstimate = r.jitterEst * 1000
	s.PlayoutDelay = r.spurtDelay
	if r.asm != nil {
		s.FramesIncomplete = r.asm.Dropped
	}
	return s
}

// PlayoutDelay returns the delay applied to the current talkspurt.
func (r *Receiver) PlayoutDelay() time.Duration { return r.spurtDelay }

// SetPlayoutDelay overrides the playout delay; the inter-media
// synchronization controller uses this to align slave streams with their
// master.
func (r *Receiver) SetPlayoutDelay(d time.Duration) {
	if d > 0 {
		r.spurtDelay = d
	}
}

// AdjustSync shifts the playout timeline by delta. Unlike the adaptive
// spurt delay, the sync offset persists across talkspurt re-targeting,
// which is what lets the inter-media synchronization controller steer a
// stream without fighting its jitter adaptation. Positive delta presents
// later.
func (r *Receiver) AdjustSync(delta time.Duration) { r.syncOffset += delta }

// SyncOffset returns the accumulated synchronization shift.
func (r *Receiver) SyncOffset() time.Duration { return r.syncOffset }

// OnMessage consumes media datagrams for the configured stream.
func (r *Receiver) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Kind != wire.KindMedia || msg.Group != r.cfg.Group || msg.Stream != r.cfg.Stream {
		return
	}
	r.lastSender = msg.From
	if msg.Flags&wire.FlagParity != 0 {
		if r.fecDec != nil {
			if seq, unit, ok := r.fecDec.AddParity(msg.Seq, msg.Body); ok {
				r.holdRecovery(seq, unit)
			}
		}
		return
	}
	r.processMedia(msg)
	if r.fecDec != nil {
		if seq, unit, ok := r.fecDec.AddData(msg.Seq, packFECUnit(msg.MediaTS, msg.Flags, msg.Body)); ok {
			r.holdRecovery(seq, unit)
		}
	}
}

// holdRecovery parks a reconstruction for the reorder window unless the
// real packet already arrived.
func (r *Receiver) holdRecovery(seq uint64, unit []byte) {
	if r.seen[seq] {
		return
	}
	r.recHold = append(r.recHold, heldRecovery{
		seq:     seq,
		unit:    unit,
		readyAt: r.env.Now().Add(recoveryHold),
	})
}

// injectRecovered replays an FEC-reconstructed packet through the normal
// media path.
func (r *Receiver) injectRecovered(seq uint64, unit []byte) {
	ts, flags, payload, ok := unpackFECUnit(unit)
	if !ok {
		return
	}
	r.stats.Recovered++
	r.mRecovered.Inc()
	r.processMedia(&wire.Message{
		Kind:    wire.KindMedia,
		Flags:   flags,
		Group:   r.cfg.Group,
		Stream:  r.cfg.Stream,
		Seq:     seq,
		MediaTS: ts,
		Body:    payload,
	})
}

// processMedia runs the receive pipeline for one data packet.
func (r *Receiver) processMedia(msg *wire.Message) {
	// Dedupe: an FEC parity overtaking the last packet of its block can
	// "recover" a packet that is merely in flight; whichever copy comes
	// second must be dropped.
	if r.seen[msg.Seq] {
		return
	}
	r.seen[msg.Seq] = true
	if len(r.seen) > 8192 {
		horizon := uint64(0)
		if r.nextSeq > 4096 {
			horizon = r.nextSeq - 4096
		}
		for s := range r.seen {
			if s < horizon {
				delete(r.seen, s)
			}
		}
	}
	now := r.env.Now()
	capture := r.cfg.Spec.DurationFor(msg.MediaTS)

	if !r.started {
		// Anchor the capture timeline so the first frame has exactly
		// the configured playout delay.
		r.started = true
		r.base = now.Add(-capture)
	}
	r.stats.Received++
	r.mRecv.Inc()

	// Sequence accounting for loss measurement.
	switch {
	case msg.Seq == r.nextSeq:
		r.nextSeq++
	case msg.Seq > r.nextSeq:
		r.stats.Lost += msg.Seq - r.nextSeq
		r.mLost.Add(msg.Seq - r.nextSeq)
		r.nextSeq = msg.Seq + 1
	default:
		// Very late duplicate or reordering below the horizon.
	}

	// Delay measurement: how far behind the anchored capture timeline
	// this frame arrived.
	transit := now.Sub(r.base.Add(capture)).Seconds()
	if r.stats.Received == 1 {
		r.delayEst = transit
	} else {
		r.delayEst = Alpha*r.delayEst + (1-Alpha)*transit
		dev := transit - r.delayEst
		if dev < 0 {
			dev = -dev
		}
		r.jitterEst = Alpha*r.jitterEst + (1-Alpha)*dev
	}

	// Re-target the playout delay at talkspurt boundaries.
	if r.cfg.Mode == Adaptive && msg.Flags&wire.FlagMarker != 0 {
		d := time.Duration((r.delayEst + r.cfg.SafetyFactor*r.jitterEst) * float64(time.Second))
		if d < r.cfg.Spec.FrameEvery {
			d = r.cfg.Spec.FrameEvery
		}
		r.spurtDelay = d
	}

	// Reassembly mode: collect fragments; only a completed frame enters
	// the playout buffer.
	data := msg.Body
	marker := msg.Flags&wire.FlagMarker != 0
	if r.asm != nil {
		assembled, done := r.asm.Add(msg.Seq, msg.MediaTS,
			msg.Flags&wire.FlagFragStart != 0,
			marker, msg.Body)
		if !done {
			return
		}
		data = assembled
		// A reassembled frame is complete by construction, whatever
		// flag the completing (possibly reordered) fragment carried.
		marker = true
	}

	playAt := r.base.Add(capture + r.spurtDelay + r.syncOffset)
	if playAt.Before(now) {
		// A late frame is dropped at playout — the receive-side cost the
		// paper's adaptive playout is tuned to minimize.
		r.stats.Late++
		r.mLate.Inc()
		if r.cfg.Flight != nil {
			r.cfg.Flight.Record(uint64(r.lastSender), now.UnixMilli(),
				flightrec.EvPlayoutDrop, uint64(msg.Stream), msg.Seq)
		}
		return
	}
	f := media.Frame{
		Stream:  msg.Stream,
		Seq:     msg.Seq,
		TS:      msg.MediaTS,
		Capture: capture,
		Data:    data,
		Marker:  marker,
	}
	r.enqueue(pending{frame: f, playAt: playAt})
}

// enqueue inserts in playAt order, evicting the oldest buffered frame
// when a bound is configured and full (drop-oldest: under overload a
// fresh frame is worth more than the one that has waited longest).
func (r *Receiver) enqueue(p pending) {
	if r.cfg.MaxBuffered > 0 && len(r.queue) >= r.cfg.MaxBuffered {
		r.stats.QueueDropped++
		r.mQueueDrops.Inc()
		if r.cfg.Flight != nil {
			old := &r.queue[0].frame
			r.cfg.Flight.Record(uint64(r.env.Self()), r.env.Now().UnixMilli(),
				flightrec.EvPlayoutDrop, uint64(old.Stream), old.Seq)
		}
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
	}
	i := sort.Search(len(r.queue), func(i int) bool {
		return r.queue[i].playAt.After(p.playAt)
	})
	r.queue = append(r.queue, pending{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = p
}

// OnTick injects matured FEC recoveries, emits due receiver reports and
// plays every frame whose playout point has arrived.
func (r *Receiver) OnTick(now time.Time) {
	r.maybeReport(now)
	if len(r.recHold) > 0 {
		kept := r.recHold[:0]
		for _, h := range r.recHold {
			switch {
			case r.seen[h.seq]:
				// The real packet arrived during the hold.
			case h.readyAt.After(now):
				kept = append(kept, h)
			default:
				r.injectRecovered(h.seq, h.unit)
			}
		}
		r.recHold = kept
	}
	played := 0
	for _, p := range r.queue {
		if p.playAt.After(now) {
			break
		}
		played++
		r.stats.Played++
		r.mPlayed.Inc()
		if r.cfg.OnPlay != nil {
			r.cfg.OnPlay(p.frame, p.playAt)
		}
	}
	if played > 0 {
		r.queue = append(r.queue[:0], r.queue[played:]...)
	}
}

// Buffered returns the number of frames waiting in the playout buffer.
func (r *Receiver) Buffered() int { return len(r.queue) }
