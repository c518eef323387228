package rmcast

import "time"

// The sequencer decides a message's slot when the message arrives and
// announces decisions in batches. When a batch leaves is chosen by the
// ordering rate the sequencer measures, one window at a time:
//
//   - latency mode, while a window sequences fewer than latencyModeMax
//     messages: the decisions of an activation are announced at its end
//     (OnActivationEnd), in the same transport flush as the activation's
//     other output. A message waits for no clock.
//   - cadence mode, otherwise: nothing is announced at activation end and
//     the window close (OnWindow) carries the whole batch, so the
//     announcement cost per message keeps falling as the rate rises.
//
// Both constants were sized on the live total-1k-udp benchmark (DESIGN §13
// has the sweep): at 3 ms a closed loop of 64 outstanding messages refills
// inside every window, so its rate is set by the clock rather than by
// spare CPU; below 32 messages per window (≈ 10 k msg/s) announcing per
// activation costs three small datagrams per message, above it the
// sequencer would announce every message or two.
//
// A runtime that does not implement the proto.Windowed calls (netsim by
// default) leaves the engine as it always was: OnTick closes the window.
const (
	OrderWindow    = 3 * time.Millisecond
	latencyModeMax = 32
)

// Window implements proto.Windowed: only a total-order engine holds
// decisions back, so only it asks for the two calls.
func (e *Engine) Window() time.Duration {
	if e.cfg.Ordering != Total {
		return 0
	}
	return OrderWindow
}

// OnActivationEnd announces what the ending activation decided, in
// latency mode.
func (e *Engine) OnActivationEnd() {
	if !e.cadence && e.flushOrders() {
		e.met.orderFlushesEarly.Inc()
	}
}

// OnWindow closes one ordering window. From the first call on the runtime
// owns the window and OnTick stops closing it.
func (e *Engine) OnWindow(time.Time) {
	e.windowed = true
	e.closeWindow()
}

// closeWindow announces every pending decision and picks the next
// window's mode from what this one sequenced.
func (e *Engine) closeWindow() {
	e.flushOrders()
	e.cadence = e.windowSeq >= latencyModeMax
	e.windowSeq = 0
	if e.cadence {
		e.met.orderMode.Set(1)
	} else {
		e.met.orderMode.Set(0)
	}
}
