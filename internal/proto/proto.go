// Package proto defines the contract between protocol engines (failure
// detection, membership, reliable multicast, media transport) and the
// runtime that drives them.
//
// Engines are written as synchronous, non-blocking state machines: the
// runtime calls OnMessage for each inbound datagram and OnTick at a fixed
// cadence, always from a single goroutine, and the engine reacts by calling
// Env.Send and by invoking its configured upcalls. This "sans-IO" shape is
// what lets the same protocol code run both in real time over UDP
// (internal/noderun) and under deterministic virtual time in the
// discrete-event simulator (internal/netsim) that drives the paper's
// experiments.
package proto

import (
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// Handler is a protocol engine as seen by the runtime. Implementations
// must not block. The runtime hands each inbound msg over for good — it
// never reuses or recycles a delivered message — so an engine may keep it
// (rmcast's history, bulk's symbol store) but must not modify it: a Mux
// shows the same message to every engine.
type Handler interface {
	// OnMessage processes one inbound datagram.
	OnMessage(from id.Node, msg *wire.Message)
	// OnTick runs periodic protocol work (retransmission scans,
	// heartbeats, timeout checks) at the runtime's tick cadence.
	OnTick(now time.Time)
}

// Windowed is the optional second half of the runtime contract, for an
// engine that holds decisions back to batch them (rmcast's total-order
// sequencer). A runtime that supports it asks Window once, when it starts
// the handler, and — unless the answer is zero — makes both calls from the
// same goroutine as the Handler calls. A handler that does not implement
// it costs the runtime one failed type assertion at start.
type Windowed interface {
	// Window returns the cadence at which the handler wants OnWindow, or
	// zero when it wants neither call.
	Window() time.Duration
	// OnActivationEnd runs at the end of every activation — a burst of
	// OnMessage calls, an OnTick, an OnWindow or an injected call — just
	// before the runtime flushes the transport, so whatever the handler
	// sends here leaves with the activation's other output.
	OnActivationEnd()
	// OnWindow marks one period of the handler's cadence (for rmcast's
	// sequencer, one tick of its ordering clock). A runtime whose tick is
	// no longer than that period calls it right after each OnTick instead
	// of running a second cadence.
	OnWindow(now time.Time)
}

// Env is the runtime environment an engine operates in. All methods are
// only called from the engine's own event loop, so engines need no
// internal locking for state touched exclusively through Handler calls.
type Env interface {
	// Self returns the local node ID.
	Self() id.Node
	// Now returns the current time — wall time in live mode, virtual
	// time under simulation.
	Now() time.Time
	// Send transmits one best-effort datagram. Loss is silent, exactly
	// like the transport beneath. Send encodes msg synchronously and
	// does not retain it (or its slices) after returning, so engines may
	// reuse one message value — including scratch-backed Body or Acks —
	// across consecutive Send calls.
	Send(to id.Node, msg *wire.Message)
}

// Mux fans one runtime event stream out to several engines, letting a node
// stack a failure detector, a membership engine and a multicast engine on
// one endpoint. Engines receive events in registration order.
type Mux struct {
	handlers []Handler
	windowed []Windowed // the handlers that implement Windowed
}

var (
	_ Handler  = (*Mux)(nil)
	_ Windowed = (*Mux)(nil)
)

// NewMux returns a mux over the given engines.
func NewMux(handlers ...Handler) *Mux {
	m := &Mux{handlers: make([]Handler, 0, len(handlers))}
	for _, h := range handlers {
		m.Add(h)
	}
	return m
}

// Add appends another engine. Add must not be called concurrently with
// event dispatch. The runtime reads Window once, when it starts the mux:
// add Windowed engines before that.
func (m *Mux) Add(h Handler) {
	m.handlers = append(m.handlers, h)
	if w, ok := h.(Windowed); ok {
		m.windowed = append(m.windowed, w)
	}
}

// OnMessage forwards the datagram to every engine.
func (m *Mux) OnMessage(from id.Node, msg *wire.Message) {
	for _, h := range m.handlers {
		h.OnMessage(from, msg)
	}
}

// OnTick forwards the tick to every engine.
func (m *Mux) OnTick(now time.Time) {
	for _, h := range m.handlers {
		h.OnTick(now)
	}
}

// Window returns the shortest window any engine asks for, zero if none does.
func (m *Mux) Window() time.Duration {
	var min time.Duration
	for _, w := range m.windowed {
		if d := w.Window(); d > 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// OnActivationEnd forwards to every Windowed engine.
func (m *Mux) OnActivationEnd() {
	for _, w := range m.windowed {
		w.OnActivationEnd()
	}
}

// OnWindow forwards the window close to every Windowed engine.
func (m *Mux) OnWindow(now time.Time) {
	for _, w := range m.windowed {
		w.OnWindow(now)
	}
}
