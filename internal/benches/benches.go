// Package benches holds the data-plane micro-benchmark bodies shared
// between the `go test -bench` wrappers (benches_test.go) and the
// benchmark-regression gate (TestBenchGate at the repo root). Defining
// the bodies once keeps interactive bench runs and the gate's
// testing.Benchmark invocations measuring exactly the same code.
package benches

import (
	"testing"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// benchGroupSize is the view size the rmcast benchmarks run with: large
// enough that the fan-out loop dominates, small enough that one op stays
// in the microsecond range.
const benchGroupSize = 8

// SampleDataMessage returns a representative steady-state data message:
// causal timestamp for a benchGroupSize view, a typical audio-frame body
// and a piggybacked stability vector.
func SampleDataMessage() *wire.Message {
	ts := make([]uint32, benchGroupSize)
	acks := make([]wire.AckEntry, benchGroupSize)
	for i := range ts {
		ts[i] = uint32(100 + i)
		acks[i] = wire.AckEntry{Sender: id.Node(i + 1), Seq: uint64(100 + i)}
	}
	body := make([]byte, 512)
	for i := range body {
		body[i] = byte(i)
	}
	return &wire.Message{
		Kind:   wire.KindData,
		Flags:  wire.FlagCausal | wire.FlagPiggyAck,
		From:   1,
		Group:  1,
		View:   1,
		Sender: 1,
		Seq:    1000,
		TS:     ts,
		Body:   body,
		Acks:   acks,
	}
}

// WireRoundTrip measures one encode+decode cycle of a steady-state data
// message through the pooled buffer and message paths. Zero allocs/op.
func WireRoundTrip(b *testing.B) {
	msg := SampleDataMessage()
	m := wire.GetMessage()
	defer wire.PutMessage(m)
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	// Warm the reusable storage so the loop measures the steady state.
	*bp = msg.Encode((*bp)[:0])
	if err := wire.DecodeInto(m, *bp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*bp = msg.Encode((*bp)[:0])
		if err := wire.DecodeInto(m, *bp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnv is a proto.Env whose Send behaves like a real transport:
// encode synchronously into a pooled buffer, then let go of the message.
type benchEnv struct {
	self id.Node
	now  time.Time
	sink func(to id.Node, msg *wire.Message)
}

var _ proto.Env = (*benchEnv)(nil)

func (e *benchEnv) Self() id.Node  { return e.self }
func (e *benchEnv) Now() time.Time { return e.now }
func (e *benchEnv) Send(to id.Node, msg *wire.Message) {
	e.sink(to, msg)
}

// newBenchEngine builds an rmcast engine for node 1 in a static
// benchGroupSize view, wired to an encode-and-discard transport.
func newBenchEngine() (*rmcast.Engine, *benchEnv, []id.Node) {
	return newBenchEngineWith(nil, nil)
}

// newBenchEngineWith is newBenchEngine with a metrics registry and flight
// recorder attached, for measuring instrumentation overhead.
func newBenchEngineWith(reg *stats.Registry, fr *flightrec.Recorder) (*rmcast.Engine, *benchEnv, []id.Node) {
	env := &benchEnv{self: 1, now: time.Unix(0, 0)}
	env.sink = func(_ id.Node, msg *wire.Message) {
		bp := wire.GetBuf()
		*bp = msg.Encode((*bp)[:0])
		wire.PutBuf(bp)
	}
	eng := rmcast.New(env, rmcast.Config{
		Group:     1,
		Ordering:  rmcast.FIFO,
		Metrics:   reg,
		Flight:    fr,
		OnDeliver: func(rmcast.Delivery) {},
	})
	members := make([]id.Node, benchGroupSize)
	for i := range members {
		members[i] = id.Node(i + 1)
	}
	eng.SetView(member.NewView(1, members))
	return eng, env, members
}

// stabilizer feeds the engine synthetic KindStable vectors from every
// peer, acknowledging everything node 1 has sent, so the history buffer
// drains and the benchmark measures the steady state rather than an
// ever-growing history map. Its scratch storage makes the periodic
// acknowledgment itself allocation-free once warm.
type stabilizer struct {
	row  []wire.AckEntry
	body []byte
	msg  wire.Message
}

func (s *stabilizer) ack(eng *rmcast.Engine, members []id.Node, seq uint64) {
	s.row = append(s.row[:0], wire.AckEntry{Sender: 1, Seq: seq})
	s.body = wire.AppendAckVector(s.body[:0], s.row)
	s.msg = wire.Message{Kind: wire.KindStable, Group: 1, View: 1, Body: s.body}
	for _, m := range members {
		if m == 1 {
			continue
		}
		s.msg.From = m
		eng.OnMessage(m, &s.msg)
	}
}

// RmcastMulticastFull measures one application Multicast end to end on
// the sender: piggybacked ack vector, one encode per peer through the
// pooled buffer path, and local dispatch. The few remaining allocs/op
// are the retained payload copy and message struct handed to the history
// buffer and OnDeliver — deliberately not pooled, since applications may
// keep them.
func RmcastMulticastFull(b *testing.B) {
	eng, _, members := newBenchEngine()
	payload := make([]byte, 256)
	var st stabilizer
	// Warm one stabilization round so its maps and scratch exist.
	if err := eng.Multicast(payload); err != nil {
		b.Fatal(err)
	}
	st.ack(eng, members, eng.Counters().Sent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multicast(payload); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			st.ack(eng, members, eng.Counters().Sent)
		}
	}
}

// RmcastMulticastFlow is RmcastMulticastFull with the stability-window
// flow controller armed: every Multicast runs the admission check
// (occupancy and byte accounting against FlowWindow) before the normal
// send path. The stabilization cadence keeps the window open, so the
// benchmark measures the uncongested fast path — its allocation budget
// must match RmcastMulticastFull exactly, proving the flow-control check
// adds zero allocations per send.
func RmcastMulticastFlow(b *testing.B) {
	env := &benchEnv{self: 1, now: time.Unix(0, 0)}
	env.sink = func(_ id.Node, msg *wire.Message) {
		bp := wire.GetBuf()
		*bp = msg.Encode((*bp)[:0])
		wire.PutBuf(bp)
	}
	eng := rmcast.New(env, rmcast.Config{
		Group:      1,
		Ordering:   rmcast.FIFO,
		FlowWindow: 128, // twice the 64-send stabilization cadence
		OnDeliver:  func(rmcast.Delivery) {},
	})
	members := make([]id.Node, benchGroupSize)
	for i := range members {
		members[i] = id.Node(i + 1)
	}
	eng.SetView(member.NewView(1, members))
	payload := make([]byte, 256)
	var st stabilizer
	if err := eng.Multicast(payload); err != nil {
		b.Fatal(err)
	}
	st.ack(eng, members, eng.Counters().Sent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multicast(payload); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			st.ack(eng, members, eng.Counters().Sent)
		}
	}
}

// RmcastMulticastTotal measures one application Multicast under total
// order: node 1 is the sequencer of an 8-member view, so every op runs
// the range-accumulation path (extend the open seq-run, queue the
// message) and each rangeFlushThreshold-th op flushes a pipelined range
// decision and delivers the whole run. The ordering machinery must stay
// alloc-neutral: the budget matches RmcastMulticastFull, so the ORDER hot
// path adds zero allocations per message.
func RmcastMulticastTotal(b *testing.B) {
	env := &benchEnv{self: 1, now: time.Unix(0, 0)}
	env.sink = func(_ id.Node, msg *wire.Message) {
		bp := wire.GetBuf()
		*bp = msg.Encode((*bp)[:0])
		wire.PutBuf(bp)
	}
	eng := rmcast.New(env, rmcast.Config{
		Group:     1,
		Ordering:  rmcast.Total,
		OnDeliver: func(rmcast.Delivery) {},
	})
	members := make([]id.Node, benchGroupSize)
	for i := range members {
		members[i] = id.Node(i + 1)
	}
	eng.SetView(member.NewView(1, members))
	payload := make([]byte, 256)
	var st stabilizer
	// Warm a full flush cycle so the decision log, queues and scratch
	// buffers exist before the timer starts.
	for i := 0; i < 512; i++ {
		if err := eng.Multicast(payload); err != nil {
			b.Fatal(err)
		}
	}
	st.ack(eng, members, eng.Counters().Sent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multicast(payload); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			st.ack(eng, members, eng.Counters().Sent)
		}
	}
}

// RmcastMulticastInstrumented is RmcastMulticastFull with the full
// telemetry layer live: a registry-backed counter set and a flight
// recorder receiving one event per send. The allocation budget must match
// the uninstrumented benchmark exactly — metric increments are plain
// atomics on pre-resolved pointers and Record writes into a fixed ring,
// so instrumentation adds zero allocations to the hot path.
func RmcastMulticastInstrumented(b *testing.B) {
	reg := stats.NewRegistry()
	fr := flightrec.New(1024)
	eng, _, members := newBenchEngineWith(reg, fr)
	payload := make([]byte, 256)
	var st stabilizer
	if err := eng.Multicast(payload); err != nil {
		b.Fatal(err)
	}
	st.ack(eng, members, eng.Counters().Sent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multicast(payload); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			st.ack(eng, members, eng.Counters().Sent)
		}
	}
}

// CapturedDataMessage runs real Multicasts against a capturing transport
// and returns a deep copy of an outgoing steady-state data message —
// piggybacked ack vector included — for encode-path benchmarks.
func CapturedDataMessage() *wire.Message {
	eng, env, _ := newBenchEngine()
	var captured *wire.Message
	env.sink = func(_ id.Node, msg *wire.Message) {
		if msg.Kind == wire.KindData && msg.Flags&wire.FlagPiggyAck != 0 {
			c := *msg
			c.TS = append(msg.TS[:0:0], msg.TS...)
			c.Body = append(msg.Body[:0:0], msg.Body...)
			c.Acks = append(msg.Acks[:0:0], msg.Acks...)
			captured = &c
		}
	}
	payload := make([]byte, 256)
	// The first send predates any receive state, so its ack vector is
	// empty; the second piggybacks the self row.
	for i := 0; i < 2 && captured == nil; i++ {
		if err := eng.Multicast(payload); err != nil {
			panic(err)
		}
	}
	if captured == nil {
		panic("benches: no piggybacked data message captured")
	}
	return captured
}

// RmcastMulticastEncode isolates the wire encode path of the multicast
// send loop: encoding one engine-produced data message into a pooled
// buffer, exactly as every transport's Send does. Zero allocs/op.
func RmcastMulticastEncode(b *testing.B) {
	msg := CapturedDataMessage()
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = msg.Encode((*bp)[:0]) // warm the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*bp = msg.Encode((*bp)[:0])
	}
}

// echoNode is the minimal simulator workload: every delivered datagram is
// sent straight back, so a pair of echo nodes keeps a fixed population of
// datagrams in perpetual flight with no protocol logic in the way.
type echoNode struct {
	env  proto.Env
	peer id.Node
}

func (e *echoNode) OnMessage(_ id.Node, msg *wire.Message) { e.env.Send(e.peer, msg) }
func (e *echoNode) OnTick(time.Time)                       {}

// netsimInflight is how many datagrams the node-step benchmark keeps in
// flight: enough that deliveries dwarf the background tick events, small
// enough that the calendar queue stays in its near-bucket regime.
const netsimInflight = 16

// NetsimNodeStep measures one simulator event step end to end: calendar
// queue pop, link model (delay, jitter and loss draws), wire decode into
// a fresh message, handler dispatch, and the echo reply's encode and
// re-schedule. This is the per-event cost that the 256- and 1024-node
// sweeps multiply by millions, so it gates the netsim scale refactor.
func NetsimNodeStep(b *testing.B) {
	// 1ms delay, no jitter or loss: the benchmark measures the event
	// machinery, not the RNG.
	link := netsim.Link{Delay: time.Millisecond}
	sim := netsim.New(netsim.Config{
		Seed:    1,
		Profile: func(_, _ id.Node) netsim.Link { return link },
	})
	var n1 *echoNode
	sim.AddNode(1, func(env proto.Env) proto.Handler {
		n1 = &echoNode{env: env, peer: 2}
		return n1
	})
	sim.AddNode(2, func(env proto.Env) proto.Handler {
		return &echoNode{env: env, peer: 1}
	})
	msg := SampleDataMessage()
	sim.At(0, func() {
		for i := 0; i < netsimInflight; i++ {
			n1.env.Send(2, msg)
		}
	})
	// Warm one window so the queue, pools and link state exist.
	horizon := 10 * time.Millisecond
	sim.Run(horizon)
	b.ReportAllocs()
	b.ResetTimer()
	for steps := 0; steps < b.N; {
		horizon += time.Millisecond
		steps += sim.Run(horizon)
	}
}

// udpWindow is the number of datagrams the UDP throughput benchmark
// sends before draining the receiver: one transport batch worth, small
// enough (~20KB of ~600-byte datagrams) that loopback socket buffers
// absorb the burst without loss.
const udpWindow = transport.DefaultBatch

// udpInflight is how many send windows the UDP throughput benchmark
// keeps in flight before waiting for receiver credit: deep enough that
// the sender never idles on receiver latency, shallow enough
// (udpInflight × udpWindow × ~600B ≈ 75KB) that loopback socket
// buffers absorb the backlog without loss.
const udpInflight = 4

// UDPThroughput measures moving one steady-state data message across a
// real loopback UDP socket pair, in credit-windowed pipelined bursts of
// udpWindow coalesced sends. batch selects the I/O path:
// transport.DefaultBatch exercises the recvmmsg/sendmmsg batcher where
// available, 1 forces the portable one-syscall-per-datagram path — the
// ratio of the two is the syscall batching win. Each op is one datagram
// end to end, so msgs/sec is the reciprocal of ns/op. Zero allocs/op in
// the steady state.
func UDPThroughput(b *testing.B, batch int) {
	src, err := transport.ListenUDP(1, "127.0.0.1:0", transport.WithBatchSize(batch))
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := transport.ListenUDP(2, "127.0.0.1:0", transport.WithBatchSize(batch))
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	if err := src.AddPeer(2, dst.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}
	msg := SampleDataMessage()
	sendWindow := func(w int) {
		for i := 0; i < w; i++ {
			if err := src.SendBatch(2, msg); err != nil {
				b.Fatal(err)
			}
		}
		if err := src.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// drain consumes windows of w datagrams, releasing one credit per
	// window. Loopback UDP may still drop under scheduler stalls; a
	// per-window timeout turns a shortfall into credit instead of a
	// deadlock.
	drain := func(total int, creds chan<- struct{}, done chan<- struct{}) {
		timeout := time.NewTimer(time.Second)
		defer timeout.Stop()
		for got := 0; got < total; {
			w := udpWindow
			if rem := total - got; rem < w {
				w = rem
			}
			if !timeout.Stop() {
				select {
				case <-timeout.C:
				default:
				}
			}
			timeout.Reset(time.Second)
		window:
			for i := 0; i < w; i++ {
				select {
				case in := <-dst.Recv():
					wire.PutMessage(in.Msg)
				case <-timeout.C:
					break window // lost datagrams; keep measuring
				}
			}
			got += w
			creds <- struct{}{}
		}
		close(done)
	}
	// Warm one synchronous window so pools, peer tables and batcher
	// arrays exist before the timer starts.
	{
		creds := make(chan struct{}, 1)
		done := make(chan struct{})
		go drain(udpWindow, creds, done)
		sendWindow(udpWindow)
		<-done
	}
	creds := make(chan struct{}, udpInflight)
	for i := 0; i < udpInflight; i++ {
		creds <- struct{}{}
	}
	done := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	go drain(b.N, creds, done)
	for sent := 0; sent < b.N; {
		w := udpWindow
		if rem := b.N - sent; rem < w {
			w = rem
		}
		<-creds
		sendWindow(w)
		sent += w
	}
	<-done
}

// TransportLoopback measures one datagram through the in-process fabric
// on a zero-delay link: pooled encode, inline delivery, decode into the
// receiver's queue.
func TransportLoopback(b *testing.B) {
	f := transport.NewFabric()
	src, err := f.Attach(1)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := f.Attach(2)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	msg := SampleDataMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(2, msg); err != nil {
			b.Fatal(err)
		}
		<-dst.Recv()
	}
}
