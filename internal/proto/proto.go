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
}

var _ Handler = (*Mux)(nil)

// NewMux returns a mux over the given engines.
func NewMux(handlers ...Handler) *Mux {
	m := &Mux{handlers: make([]Handler, len(handlers))}
	copy(m.handlers, handlers)
	return m
}

// Add appends another engine. Add must not be called concurrently with
// event dispatch.
func (m *Mux) Add(h Handler) { m.handlers = append(m.handlers, h) }

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
