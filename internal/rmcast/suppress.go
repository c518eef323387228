package rmcast

import (
	"sort"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// SRM-style scalable loss recovery (Floyd et al.), adapted to the
// tick-driven engine:
//
//   - Requests are multicast. On detecting a gap a receiver arms a timer
//     drawn from uniform(C1·d, (C1+C2)·d), d its estimated distance to
//     the sender, started no earlier than the sender's measured
//     reordering window after the gap appeared. When the timer fires it
//     multicasts one KindRepairReq naming only the hole at its delivery
//     point, [next, end of the first missing run]; any member that hears
//     a request covering its own next first suppresses its own
//     (re-arming with exponential backoff), so per loss the group sends
//     O(1) expected requests instead of one per gapped receiver.
//     Progress disarms the timer: the next hole gets a fresh draw.
//   - Repairs are multicast and any holder may answer. A member holding
//     requested data arms a repair timer drawn from uniform(D1·d',
//     (D1+D2)·d'), d' its distance to the requester, and cancels it if
//     the repair is heard first. Holder candidacy is sampled per request
//     attempt so large groups don't race hundreds of timers, and the
//     original sender always answers (damped), keeping recovery live
//     even when the sample misses every holder.
//   - Duplicate-repair damping: a served (sender, seq) is not re-served
//     by the same member within the damping window, absorbing request
//     bursts that crossed on the wire.
//
// Distances are measured, not configured: a requester times its request
// to the original sender's immediate repair (onRepairReq answers at once
// when it is the sender) and keeps half the windowed minimum round trip
// per peer. An explicit Config.Distance still wins; peers without a
// sample fall back to the engine-wide minimum, and only an engine with
// no sample at all uses DefaultPeerDistance. The reordering
// window is RACK's time-based loss detection (RFC 8985) applied to SRM:
// the longest recent gap that the sender's original data, not a repair,
// closed. Both survive view changes (see peerTiming).
//
// Requests and repairs count as protocol events (NacksSent, NacksServed)
// once per multicast, matching the IP-multicast cost model of the paper
// this reconstruction targets: under the simulator's unicast fan-out a
// single multicast expands to view-size datagrams, which would make
// datagram counts meaningless for comparing recovery schemes.

// Suppression tuning, SRM's constants: a gap's request timer is drawn from
// uniform(requestC1·d, (requestC1+requestC2)·d), d the distance to the
// sender, and a holder's repair timer from uniform(repairD1·d',
// (repairD1+repairD2)·d') over the distance d' to the requester. A larger
// spread suppresses more duplicates at the cost of recovery latency.
const (
	requestC1 = 1.0
	requestC2 = 6.0
	repairD1  = 1.0
	repairD2  = 6.0
	// DefaultPeerDistance is the distance estimate of an engine that has
	// no Config.Distance answer and no measured round trip yet.
	DefaultPeerDistance = 5 * time.Millisecond
	// repairSample bounds how many members (besides the original sender,
	// which always answers) arm repair timers for one request attempt.
	repairSample = 8
	// repairDamp is how long a member refuses to re-serve a (sender, seq)
	// it just served or heard served.
	repairDamp = 4 * DefaultPeerDistance
	// requestBackoffCap bounds the exponential re-request interval.
	requestBackoffCap = 2 * time.Second
)

// maxBackoffShift bounds the exponential request backoff exponent; the
// cap duration is reached long before, this only guards the shift.
const maxBackoffShift = 16

// repairJob is one armed repair timer: this member intends to multicast
// repairs for sender's range [from, to] at the scheduled instant unless
// it hears the repair first.
type repairJob struct {
	at       time.Time
	from, to uint64
}

// timingWindow is how many recent samples a peer's measurements keep.
const timingWindow = 8

// samples holds the last timingWindow positive durations of one measure.
type samples struct {
	s [timingWindow]time.Duration
	n int // samples taken
}

func (r *samples) add(d time.Duration) {
	r.s[r.n%timingWindow] = d
	r.n++
}

// min is the smallest held sample, zero before the first.
func (r *samples) min() time.Duration {
	var m time.Duration
	for _, d := range r.s {
		if d > 0 && (m == 0 || d < m) {
			m = d
		}
	}
	return m
}

// max is the largest held sample, zero before the first.
func (r *samples) max() time.Duration {
	var m time.Duration
	for _, d := range r.s {
		m = max(m, d)
	}
	return m
}

// peerTiming is what an engine has measured about one peer, kept across
// view changes (SetView rebuilds peers, not this): round trips from a
// repair request to the original sender's immediate repair, and gaps the
// sender's original data closed.
type peerTiming struct {
	rtt, reo samples
}

// timing returns the measurements for peer n, creating them on first use.
func (e *Engine) timing(n id.Node) *peerTiming {
	t, ok := e.timings[n]
	if !ok {
		t = &peerTiming{}
		e.timings[n] = t
	}
	return t
}

// noteRTT records one request → origin-repair round trip to n and
// refreshes the engine-wide minimum.
func (e *Engine) noteRTT(n id.Node, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	e.timing(n).rtt.add(rtt)
	e.met.repairRTT.Observe(float64(rtt) / 1e6)
	e.refreshMinRTT()
}

// refreshMinRTT recomputes the engine-wide minimum round trip.
func (e *Engine) refreshMinRTT() {
	e.minRTT = 0
	for _, t := range e.timings {
		if m := t.rtt.min(); m > 0 && (e.minRTT == 0 || m < e.minRTT) {
			e.minRTT = m
		}
	}
}

// distance estimates the one-way delay to a peer for timer scaling: an
// explicit Config.Distance, else half the peer's measured round trip,
// else half the engine-wide minimum, else DefaultPeerDistance.
func (e *Engine) distance(n id.Node) time.Duration {
	if e.cfg.Distance != nil {
		if d := e.cfg.Distance(n); d > 0 {
			return d
		}
	}
	if t, ok := e.timings[n]; ok {
		if m := t.rtt.min(); m > 0 {
			return m / 2
		}
	}
	if e.minRTT > 0 {
		return e.minRTT / 2
	}
	return DefaultPeerDistance
}

// reorderFloor is how long after a gap in n's stream appears its request
// timer may start: the measured reordering window, capped at the request
// timer's own spread so a stale outlier cannot stall recovery.
func (e *Engine) reorderFloor(n id.Node) time.Duration {
	t, ok := e.timings[n]
	if !ok {
		return 0
	}
	return min(t.reo.max(), time.Duration(float64(e.distance(n))*(requestC1+requestC2)))
}

// backoffStretch caps and applies an exponential backoff shift.
func (e *Engine) backoffStretch(iv time.Duration, shift uint8) time.Duration {
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	iv <<= shift
	if iv <= 0 || iv > requestBackoffCap {
		iv = requestBackoffCap
	}
	return iv
}

// drawRequest draws the randomized request delay for a gap toward sender
// n, stretched by the current backoff exponent.
func (e *Engine) drawRequest(n id.Node, shift uint8) time.Duration {
	d := float64(e.distance(n))
	iv := time.Duration(d * (requestC1 + requestC2*e.rng.Float64()))
	return e.backoffStretch(iv, shift)
}

// drawRepair draws the randomized repair delay toward requester n.
func (e *Engine) drawRepair(n id.Node) time.Duration {
	d := float64(e.distance(n))
	return time.Duration(d * (repairD1 + repairD2*e.rng.Float64()))
}

// mix64 is a split-mix style bit mixer for deterministic sampling.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// repairEligible decides whether this member is in the sampled responder
// set for one request attempt. The hash covers the attempt counter so
// repeated requests rotate the sample: if every sampled holder of one
// attempt lacks the data, a later attempt reaches different members.
func (e *Engine) repairEligible(sender id.Node, from uint64, attempt uint32) bool {
	n := len(e.view.Members)
	if n <= repairSample+1 {
		return true
	}
	h := mix64(uint64(e.env.Self()) ^ mix64(uint64(sender)) ^ mix64(from) ^ mix64(uint64(attempt)<<32))
	return h%uint64(n) < uint64(repairSample)
}

// holdsAny reports whether the local history holds any message of
// sender's range [from, to]; the scan is capped like serveRetrans.
func (e *Engine) holdsAny(sender id.Node, from, to uint64) bool {
	for seq := from; seq <= to && seq-from < 1024; seq++ {
		if _, ok := e.history[msgKey{sender: sender, seq: seq}]; ok {
			return true
		}
	}
	return false
}

// scanGapsSuppressed is the data-gap scheduler: gapped receivers arm
// randomized suppression timers and multicast one repair request when
// they fire. Senders are visited in ID order for seeded-run determinism.
func (e *Engine) scanGapsSuppressed(now time.Time) {
	senders := make([]id.Node, 0, len(e.peers))
	for n := range e.peers {
		senders = append(senders, n)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for _, n := range senders {
		st := e.peers[n]
		if n == e.env.Self() {
			continue
		}
		if st.horizon < st.next {
			// Gap closed: disarm and forget the backoff.
			st.reqAt = time.Time{}
			st.reqBackoff = 0
			st.reqSentAt = time.Time{}
			st.gapAt = time.Time{}
			continue
		}
		if st.gapAt.IsZero() {
			st.gapAt = now // a gap revealed by a horizon, not by data
		}
		if st.next > st.reqMark {
			// Progress since the timer was armed: the hole at next is a
			// new one, owed a fresh, un-backed-off draw.
			st.reqBackoff = 0
			st.reqAt = time.Time{}
			st.reqSentAt = time.Time{} // no repair of the new hole is owed to us yet
		}
		if st.reqAt.IsZero() {
			start := now
			if floor := st.gapAt.Add(e.reorderFloor(n)); floor.After(start) {
				start = floor // may still be reordering, not loss
			}
			st.reqAt = start.Add(e.drawRequest(n, st.reqBackoff))
			st.reqMark = st.next
			continue
		}
		if now.Before(st.reqAt) {
			continue
		}
		// Timer fired unsuppressed: multicast the request for the hole at
		// next only, and back off.
		st.reqAttempt++
		msg := wire.Message{
			Kind:    wire.KindRepairReq,
			Group:   e.cfg.Group,
			View:    e.view.ID,
			Sender:  n,
			Seq:     st.next,
			Aux:     firstRunEnd(st),
			MediaTS: st.reqAttempt, // attempt counter, rotates the responder sample
		}
		for _, m := range e.view.Members {
			if m == e.env.Self() {
				continue
			}
			e.env.Send(m, &msg)
		}
		e.met.nacksSent.Inc()
		e.rec(flightrec.EvNackSent, uint64(n), st.next)
		if st.reqBackoff < maxBackoffShift {
			st.reqBackoff++
		}
		st.reqMark = st.next
		st.reqAt = now.Add(e.drawRequest(n, st.reqBackoff))
		st.reqSentAt = now
	}
}

// firstRunEnd is the last sequence number of the missing run starting at
// st.next: one below the lowest buffered message, else the horizon. The
// scan is capped like serveRepair's.
func firstRunEnd(st *peerState) uint64 {
	for seq := st.next + 1; seq <= st.horizon && seq-st.next < 1024; seq++ {
		if _, ok := st.buf[seq]; ok {
			return seq - 1
		}
	}
	return st.horizon
}

// onRepairReq handles one multicast repair request: suppress our own
// equivalent pending request, and — if sampled as a responder holding the
// data, or as the original sender — line up the repair.
func (e *Engine) onRepairReq(from id.Node, msg *wire.Message) {
	if msg.View != e.view.ID || !e.view.Contains(from) {
		return
	}
	now := e.env.Now()
	e.rec(flightrec.EvNackRecv, uint64(from), msg.Seq)
	sender, lo, hi := msg.Sender, msg.Seq, msg.Aux
	if sender == e.env.Self() {
		// The original sender answers immediately; damping absorbs the
		// duplicate requests suppression let through.
		e.serveRepair(sender, lo, hi, now)
		return
	}
	st := e.peer(sender)
	if hi > st.horizon {
		st.horizon = hi // the request reveals the sender's horizon
	}
	if !st.reqAt.IsZero() && lo <= st.next && hi >= st.next {
		// A request covering our hole heard before ours fired: cancel and
		// re-arm with backoff, as if we had sent it ourselves.
		if st.reqBackoff < maxBackoffShift {
			st.reqBackoff++
		}
		st.reqMark = st.next
		st.reqAt = now.Add(e.drawRequest(sender, st.reqBackoff))
		e.met.nacksSuppressed.Inc()
		e.rec(flightrec.EvNackSuppressed, uint64(sender), st.next)
	}
	if e.repairEligible(sender, lo, msg.MediaTS) && e.holdsAny(sender, lo, hi) {
		job, ok := e.repairs[sender]
		if !ok {
			e.repairs[sender] = &repairJob{at: now.Add(e.drawRepair(from)), from: lo, to: hi}
			return
		}
		// Widen an armed job rather than racing a second timer.
		if lo < job.from {
			job.from = lo
		}
		if hi > job.to {
			job.to = hi
		}
	}
}

// noteRetrans observes a repair arriving on the wire: it damps our own
// copy of that repair, suppresses any armed repair timer the heard repair
// covers, and — when it is the original sender's answer to the hole our
// last request named — samples the round trip to that sender.
func (e *Engine) noteRetrans(from id.Node, msg *wire.Message) {
	now := e.env.Now()
	if from == msg.Sender && msg.View == e.view.ID {
		if st, ok := e.peers[msg.Sender]; ok && !st.reqSentAt.IsZero() && msg.Seq == st.next {
			e.noteRTT(msg.Sender, now.Sub(st.reqSentAt))
			st.reqSentAt = time.Time{}
		}
	}
	e.recentRepairs[msgKey{sender: msg.Sender, seq: msg.Seq}] = now
	e.pruneRecentRepairs(now)
	if job, ok := e.repairs[msg.Sender]; ok && msg.Seq >= job.from && msg.Seq <= job.to {
		delete(e.repairs, msg.Sender)
		e.met.repairsSuppressed.Inc()
		e.rec(flightrec.EvRepairSuppressed, uint64(msg.Sender), msg.Seq)
	}
}

// fireRepairs serves armed repair jobs whose timers expired, in sender-ID
// order for seeded-run determinism.
func (e *Engine) fireRepairs(now time.Time) {
	if len(e.repairs) == 0 {
		return
	}
	senders := make([]id.Node, 0, len(e.repairs))
	for n, job := range e.repairs {
		if !now.Before(job.at) {
			senders = append(senders, n)
		}
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for _, n := range senders {
		job := e.repairs[n]
		delete(e.repairs, n)
		e.serveRepair(n, job.from, job.to, now)
	}
}

// serveRepair multicasts every held message of sender's range [from, to]
// that was not already served within the damping window. Repairs go to
// the whole view so that every receiver sharing the loss — and every
// member with an armed repair timer — is satisfied by the one answer.
func (e *Engine) serveRepair(sender id.Node, from, to uint64, now time.Time) {
	local := sender != e.env.Self()
	for seq := from; seq <= to && seq-from < 1024; seq++ {
		key := msgKey{sender: sender, seq: seq}
		m, ok := e.history[key]
		if !ok {
			continue
		}
		if t, ok := e.recentRepairs[key]; ok && now.Sub(t) < repairDamp {
			continue
		}
		e.recentRepairs[key] = now
		r := *m
		r.Kind = wire.KindRetrans
		for _, dst := range e.view.Members {
			if dst == e.env.Self() {
				continue
			}
			e.env.Send(dst, &r)
		}
		e.met.nacksServed.Inc()
		e.rec(flightrec.EvRetransmit, uint64(sender), seq)
		if local {
			e.met.localRepairs.Inc()
			e.rec(flightrec.EvLocalRepair, uint64(sender), seq)
		}
	}
	e.pruneRecentRepairs(now)
}

// pruneRecentRepairs bounds the damping memory; entries older than the
// window are dead weight.
func (e *Engine) pruneRecentRepairs(now time.Time) {
	if len(e.recentRepairs) < 4096 {
		return
	}
	for k, t := range e.recentRepairs {
		if now.Sub(t) >= repairDamp {
			delete(e.recentRepairs, k)
		}
	}
}
