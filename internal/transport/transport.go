// Package transport provides the unreliable datagram abstraction beneath
// the architecture. Every protocol layer sends and receives wire.Message
// values through an Endpoint; the package offers two implementations:
//
//   - Fabric, an in-process network of channel-connected endpoints with
//     configurable per-link delay, jitter, loss, duplication and network
//     partitions — the substrate for protocol tests;
//   - UDPEndpoint, a real UDP endpoint built on the net package for live
//     deployments and the cmd/mmnode daemon.
//
// Both decode inbound datagrams into a wire.Arena. The Fabric queues them
// for Recv; a UDPEndpoint can also push each socket batch straight into
// its consumer on the goroutine that read it (Pusher).
//
// Large-scale experiments use the discrete-event simulator in
// internal/netsim instead, which implements the same Endpoint interface
// under virtual time.
package transport

import (
	"errors"
	"sync/atomic"

	"scalamedia/internal/id"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// RecvQueue is the depth of an endpoint's receive queue. The in-process
// fabric drops the newest datagram when the queue is full, like a UDP
// socket buffer, and the reliable multicast layer recovers the loss; the
// UDP endpoint has a real socket buffer behind it and waits instead (see
// UDPEndpoint). The size is a deliberate, documented exception to the
// channel-size-one default: it models a socket buffer.
const RecvQueue = 1024

// Inbound is one received datagram.
type Inbound struct {
	// From is the transport-level sender.
	From id.Node
	// Msg is the decoded message. The receiver owns it, and may keep it
	// or hand it back with wire.PutMessage.
	Msg *wire.Message
}

// Endpoint is one node's attachment to the network. Implementations are
// safe for concurrent use. Send is best-effort: datagrams may be lost,
// duplicated or reordered, exactly like UDP.
type Endpoint interface {
	// Self returns the local node ID.
	Self() id.Node
	// Send transmits one message to the given node. It returns an error
	// only for local conditions (endpoint closed, unknown peer); network
	// loss is silent.
	Send(to id.Node, msg *wire.Message) error
	// Recv returns the receive queue. The channel is closed when the
	// endpoint is closed.
	Recv() <-chan Inbound
	// Close detaches the endpoint and releases its resources. Close is
	// idempotent.
	Close() error
}

// Pusher is implemented by endpoints that can hand inbound traffic to
// their consumer directly instead of through Recv. SetReceiver attaches
// fn and starts reading: the endpoint's reading goroutine then calls fn
// once per batch it read from the network, with the decoded messages in
// arrival order, and waits for it to return before reading on, so a
// consumer that blocks backs traffic up into the kernel socket buffer.
// fn owns the messages but not the slice, which is reused for the next
// batch. SetReceiver reports false, attaching nothing, when a consumer is
// already attached (a Recv call counts) or the endpoint is closed: an
// endpoint has one consumer, so no datagram is split between two.
type Pusher interface {
	SetReceiver(fn func([]Inbound)) bool
}

// Instrumented is implemented by endpoints that can report datagram
// traffic into a metrics registry. SetMetrics may be called at any time,
// including while the endpoint is active; passing nil disables reporting.
type Instrumented interface {
	SetMetrics(reg *stats.Registry)
}

// BatchSender is implemented by endpoints that can coalesce several
// outgoing datagrams into fewer transmissions (on Linux UDP, one sendmmsg
// syscall per Flush). SendBatch encodes and queues one message without
// transmitting it; Flush transmits everything queued since the previous
// Flush, preserving queue order on the local side. The message passed to
// SendBatch is fully consumed before SendBatch returns — callers may
// reuse or mutate it immediately, exactly as with Send.
//
// The event loop in internal/noderun uses this surface when available:
// every send an engine performs during one OnMessage/OnTick activation is
// queued, and the loop flushes once at the end of the activation, so a
// tick's worth of retransmissions, NACK batches, relay envelopes and
// sequencer slots leaves the socket together. An endpoint may also flush
// on its own when the queue reaches its batch capacity, so SendBatch
// never queues without bound. Implementations must keep Send working
// independently: a plain Send transmits immediately and never waits for
// a Flush.
type BatchSender interface {
	// SendBatch queues one message for transmission on the next Flush.
	// Errors are local, as for Send.
	SendBatch(to id.Node, msg *wire.Message) error
	// Flush transmits every queued message. It returns the first local
	// error encountered; network loss is silent either way.
	Flush() error
}

// Reachability is implemented by endpoints that can report whether they
// currently hold a route (an address, a fabric attachment) for a node.
// Protocol layers use it as an admission guard: a coordinator that
// positively knows it cannot answer a joiner parks the join instead of
// burning proposal rounds on it. A transport that cannot tell must not
// implement the interface — callers treat absence as "assume reachable".
type Reachability interface {
	CanReach(n id.Node) bool
}

// AddrLearner is implemented by endpoints whose peer table can be taught
// addresses at runtime — from inbound datagram sources (the endpoint does
// that itself) or from the membership layer's address exchange (the
// session wiring calls LearnPeer with addresses carried in view commits).
// A learned entry never overrides a statically configured one: static
// entries (AddPeer) represent operator intent and win until replaced by
// another AddPeer call.
type AddrLearner interface {
	LearnPeer(n id.Node, addr string) error
}

// epMetrics caches the per-endpoint counter pointers so the datagram path
// pays one atomic pointer load plus plain atomic adds — no registry map
// lookups per packet.
type epMetrics struct {
	sent        *stats.Counter // datagrams transmitted
	recvd       *stats.Counter // datagrams decoded
	bytesSent   *stats.Counter
	bytesRecvd  *stats.Counter
	decodeErrs  *stats.Counter   // malformed datagrams discarded
	queueDrops  *stats.Counter   // receive-queue overflow drops (UDP: only what Close discards)
	rxStalls    *stats.Counter   // waits of the UDP reader on a full Recv queue
	syscallsRx  *stats.Counter   // receive syscalls (UDP endpoints)
	syscallsTx  *stats.Counter   // transmit syscalls (UDP endpoints)
	addrLearned *stats.Counter   // peer addresses learned from traffic
	batchFill   *stats.Histogram // datagrams moved per batched syscall
}

// newEpMetrics registers the transport counter set on reg, or returns nil
// for a nil registry.
func newEpMetrics(reg *stats.Registry) *epMetrics {
	if reg == nil {
		return nil
	}
	return &epMetrics{
		sent:        reg.Counter("transport.datagrams_sent"),
		recvd:       reg.Counter("transport.datagrams_recv"),
		bytesSent:   reg.Counter("transport.bytes_sent"),
		bytesRecvd:  reg.Counter("transport.bytes_recv"),
		decodeErrs:  reg.Counter("transport.decode_errors"),
		queueDrops:  reg.Counter("transport.queue_drops"),
		rxStalls:    reg.Counter("transport.rx_stalls"),
		syscallsRx:  reg.Counter("transport.syscalls_rx"),
		syscallsTx:  reg.Counter("transport.syscalls_tx"),
		addrLearned: reg.Counter("transport.addr_learned"),
		batchFill:   reg.Histogram("transport.batch_fill"),
	}
}

// metricsRef is the atomic holder embedded in each endpoint so SetMetrics
// can race with active send/receive loops.
type metricsRef struct {
	p atomic.Pointer[epMetrics]
}

func (m *metricsRef) SetMetrics(reg *stats.Registry) { m.p.Store(newEpMetrics(reg)) }
func (m *metricsRef) load() *epMetrics               { return m.p.Load() }

// Errors common to all endpoint implementations.
var (
	// ErrClosed reports a send on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer reports a send to a node with no known address.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrDuplicateNode reports attaching two endpoints with one node ID.
	ErrDuplicateNode = errors.New("transport: node already attached")
)
