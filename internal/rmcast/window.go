package rmcast

import (
	"time"

	"scalamedia/internal/wire"
)

// The sequencer decides a message's slot when the message arrives and
// announces decisions in batches. When a batch leaves is chosen by the
// ordering rate the sequencer measures, one window at a time:
//
//   - latency mode, while a window sequences fewer than latencyModeMax
//     messages: the decisions of an activation are announced at its end
//     (OnActivationEnd), in the same transport flush as the activation's
//     other output. A message waits for no clock.
//   - cadence mode, otherwise: the batch leaves on a tick of the ordering
//     clock (OnWindow, every orderTick): the first tick at least echoTicks
//     after the last announcement at which every other view member has
//     echoed that announcement, and at the latest windowTicks after it.
//
// The echo: every total-order data message a member sends carries in Aux
// the first slot that member has not yet admitted (multicast), and the
// sequencer keeps the highest one per member (noteEcho). Once every other
// member's echo has reached annEnd, the end of the last announcement, all
// of them hold every decision made so far and the next batch can go. So
// one announcement is in flight at a time: when the members keep up, a
// batch leaves every echoTicks, a third sooner than the window alone would
// send it; when they lag, their echoes hold it back up to the window.
//
// The echoes pick between two clock instants rather than sending a batch
// the moment they are in. A batch per round trip would make the
// closed-loop rate whatever CPU the host spares from one run to the next,
// and on a short round trip below saturation would announce every few
// messages, n−1 datagrams each. Spaced by echoTicks, the rate under load
// is a clock rate whenever the round trip fits, and announcements cost at
// most 3/2 of what the window alone sends.
//
// A member that sends nothing — crashed, silent, or a group where only the
// sequencer sends — never echoes, and the sequencer announces windowTicks
// after the last announcement, exactly as without the echo. Sparse traffic
// has no echo source at all, which is why latency mode stays.
//
// The constants were sized on the live total-1k-udp benchmark (DESIGN §13
// has the sweeps): below 32 messages per window (≈ 10 k msg/s) announcing
// per activation costs three small datagrams per message, above it the
// sequencer would announce every message or two unless a clock batches
// them; 3 ms is the longest a decision waits in cadence mode, and 2 ms the
// spacing whose rate the benchmark's closed loop holds from run to run.
//
// A runtime that does not implement the proto.Windowed calls (netsim by
// default) leaves the engine as it always was: OnTick closes the window.
const (
	OrderWindow    = 3 * time.Millisecond
	windowTicks    = 3
	orderTick      = OrderWindow / windowTicks
	echoTicks      = 2
	latencyModeMax = 32
)

// Window implements proto.Windowed: only a total-order engine holds
// decisions back, so only it asks for the two calls, OnWindow at every
// tick of its ordering clock.
func (e *Engine) Window() time.Duration {
	if e.cfg.Ordering != Total {
		return 0
	}
	return orderTick
}

// OnActivationEnd announces what the ending activation decided, in
// latency mode.
func (e *Engine) OnActivationEnd() {
	if !e.cadence && e.flushOrders() {
		e.met.orderFlushesEarly.Inc()
	}
}

// OnWindow is one tick of the ordering clock. From the first call on the
// runtime owns the clock and OnTick stops closing windows. In cadence mode
// the pending batch leaves at the window bound, or from echoTicks on once
// every other member has echoed the last announcement. Every windowTicks-th
// tick closes the window and picks the next one's mode.
func (e *Engine) OnWindow(time.Time) {
	e.windowed = true
	o := &e.ord
	o.ticks++
	if e.cadence {
		switch {
		case o.ticks >= windowTicks:
			e.flushOrders()
		case o.ticks >= echoTicks && e.echoed():
			if e.flushOrders() {
				e.met.orderFlushesEchoed.Inc()
			}
		}
	}
	if e.winTicks++; e.winTicks == windowTicks {
		e.winTicks = 0
		e.pickMode()
	}
}

// closeWindow, for a runtime without the windowed calls, announces every
// pending decision and picks the next window's mode.
func (e *Engine) closeWindow() {
	e.flushOrders()
	e.pickMode()
}

// pickMode picks the next window's mode from what this one sequenced. A
// runtime with the windowed calls has nothing pending here in latency
// mode: every activation ended with an announcement.
func (e *Engine) pickMode() {
	e.cadence = e.windowSeq >= latencyModeMax
	e.windowSeq = 0
	if e.cadence {
		e.met.orderMode.Set(1)
	} else {
		e.met.orderMode.Set(0)
	}
}

// noteEcho records, at the sequencer, the echo a member's total-order data
// carries. Only first transmissions in the current view count: the caller
// skips KindRetrans, whose Aux may hold a stale echo (a repair served from
// a receiver's copy of the data), and a datagram from another view speaks
// of another slot space.
func (e *Engine) noteEcho(msg *wire.Message) {
	if msg.View != e.view.ID || e.view.Coordinator() != e.env.Self() {
		return
	}
	if r := e.view.Rank(msg.Sender); r >= 0 && msg.Aux > e.ord.echo[r] {
		e.ord.echo[r] = msg.Aux
	}
}

// echoed reports whether every other member's echo has reached the end of
// the last announcement.
func (e *Engine) echoed() bool {
	for r, v := range e.ord.echo {
		if r != e.rank && v < e.ord.annEnd {
			return false
		}
	}
	return true
}
