package main

import (
	"runtime"
	"time"

	"scalamedia"
	"scalamedia/internal/bulk"
	"scalamedia/internal/fec"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// The drive-throughs time one layer's exported functions alone, on the
// message shape of the workload that asked — what internal/benches does
// for a fixed shape. Iteration counts are fixed so a run costs a known,
// small amount of time; the numbers are per-layer context, never gated.

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// dataMessage is a steady-state data message as the messaging workloads
// put it on the wire: session tag plus payload, and a piggybacked
// stability vector with one row per member.
func dataMessage(payload, members int) *wire.Message {
	acks := make([]wire.AckEntry, members)
	for i := range acks {
		acks[i] = wire.AckEntry{Sender: id.Node(i + 1), Seq: uint64(1000 + i)}
	}
	body := make([]byte, 1+payload)
	for i := range body {
		body[i] = byte(i)
	}
	return &wire.Message{
		Kind: wire.KindData, Flags: wire.FlagPiggyAck,
		From: 1, Group: 1, View: 1, Sender: 1, Seq: 1000,
		Body: body, Acks: acks,
	}
}

// driveWire times wire encode and decode of the workload's data message.
func driveWire(m map[string]float64, payload, members int) {
	const iters = 200_000
	msg := dataMessage(payload, members)
	dec := wire.GetMessage()
	defer wire.PutMessage(dec)
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = msg.Encode((*bp)[:0])
	if err := wire.DecodeInto(dec, *bp); err != nil {
		return
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		*bp = msg.Encode((*bp)[:0])
	}
	m["wire.encode_ns_per_msg"] = float64(time.Since(t0)) / iters
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		_ = wire.DecodeInto(dec, *bp) // decoded once above: cannot fail now
	}
	m["wire.decode_ns_per_msg"] = float64(time.Since(t0)) / iters
	before := mallocs()
	for i := 0; i < iters; i++ {
		*bp = msg.Encode((*bp)[:0])
		_ = wire.DecodeInto(dec, *bp)
	}
	m["wire.allocs_per_roundtrip"] = float64(mallocs()-before) / iters
}

// driveEnv is a proto.Env with a settable clock whose Send hands the
// message to sink, which must consume it before returning.
type driveEnv struct {
	self id.Node
	now  time.Time
	sink func(to id.Node, msg *wire.Message)
}

var _ proto.Env = (*driveEnv)(nil)

func (e *driveEnv) Self() id.Node                      { return e.self }
func (e *driveEnv) Now() time.Time                     { return e.now }
func (e *driveEnv) Send(to id.Node, msg *wire.Message) { e.sink(to, msg) }

// driveRmcast times rmcast.Engine.Multicast on the sender and OnMessage on
// a receiver, in a static view of the workload's size. Node 1 sends (and
// sequences, under total order); everything it addresses to node 2 is
// captured and replayed into a second engine.
func driveRmcast(m map[string]float64, payload, members int, ordering scalamedia.Ordering) {
	const iters = 20_000
	nodes := make([]id.Node, members)
	for i := range nodes {
		nodes[i] = id.Node(i + 1)
	}
	view := member.NewView(1, nodes)
	var captured [][]byte
	capture := false
	scratch := wire.GetBuf()
	defer wire.PutBuf(scratch)
	senv := &driveEnv{self: 1, now: time.Unix(0, 0)}
	senv.sink = func(to id.Node, msg *wire.Message) {
		// Encode as a transport would; keep node 2's copy when capturing.
		msg.From = 1
		*scratch = msg.Encode((*scratch)[:0])
		if capture && to == 2 {
			captured = append(captured, append([]byte(nil), *scratch...))
		}
	}
	sender := rmcast.New(senv, rmcast.Config{Group: 1, Ordering: ordering, OnDeliver: func(rmcast.Delivery) {}})
	sender.SetView(view)
	body := make([]byte, 1+payload)
	step := func(i int) {
		_ = sender.Multicast(body) // no flow window: cannot be refused
		if i%64 == 63 {
			// A tick every 64 sends flushes order decisions and gossip,
			// as the live event loop's ticker would.
			senv.now = senv.now.Add(10 * time.Millisecond)
			sender.OnTick(senv.now)
		}
	}
	for i := 0; i < 1024; i++ {
		step(i)
	}
	before := mallocs()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		step(i)
	}
	m["rmcast.multicast_ns_per_msg"] = float64(time.Since(t0)) / iters
	m["rmcast.multicast_allocs_per_msg"] = float64(mallocs()-before) / iters

	// A fresh pair for the receive side, so the receiver sees the
	// sender's stream from sequence number 1.
	sender = rmcast.New(senv, rmcast.Config{Group: 1, Ordering: ordering, OnDeliver: func(rmcast.Delivery) {}})
	sender.SetView(view)
	capture = true
	for i := 0; i < iters; i++ {
		step(i)
	}
	senv.now = senv.now.Add(10 * time.Millisecond)
	sender.OnTick(senv.now)
	msgs := make([]*wire.Message, 0, len(captured))
	for _, raw := range captured {
		if msg, err := wire.Decode(raw); err == nil {
			msgs = append(msgs, msg)
		}
	}
	delivered := 0
	renv := &driveEnv{self: 2, now: time.Unix(0, 0), sink: func(id.Node, *wire.Message) {}}
	recv := rmcast.New(renv, rmcast.Config{Group: 1, Ordering: ordering, OnDeliver: func(rmcast.Delivery) { delivered++ }})
	recv.SetView(view)
	t0 = time.Now()
	for _, msg := range msgs {
		recv.OnMessage(1, msg)
	}
	if delivered > 0 {
		m["rmcast.onmessage_ns_per_msg"] = float64(time.Since(t0)) / float64(delivered)
	}
}

// driveUDPCeiling measures how many datagrams of the workload's size one
// loopback UDP endpoint pair moves per second through the transport's
// batched path, in credit-windowed bursts as benches.UDPThroughput does:
// the wire ceiling the workload's own datagram rate is compared with.
func driveUDPCeiling(payload int) float64 {
	const (
		window  = transport.DefaultBatch
		windows = 1500
	)
	src, err := transport.ListenUDP(1, "127.0.0.1:0", transport.WithDecodeWorkers(1))
	if err != nil {
		return 0
	}
	defer src.Close()
	dst, err := transport.ListenUDP(2, "127.0.0.1:0", transport.WithDecodeWorkers(1))
	if err != nil {
		return 0
	}
	defer dst.Close()
	if err := src.AddPeer(2, dst.LocalAddr().String()); err != nil {
		return 0
	}
	msg := dataMessage(payload, 4)
	// credits bounds the windows in flight so loopback socket buffers
	// absorb the backlog; the drain goroutine returns one per window.
	credits := make(chan struct{}, 4)
	for i := 0; i < cap(credits); i++ {
		credits <- struct{}{}
	}
	done := make(chan int)
	go func() {
		got := 0
		timeout := time.NewTimer(time.Second)
		defer timeout.Stop()
		for w := 0; w < windows; w++ {
			timeout.Reset(time.Second)
		recv:
			for i := 0; i < window; i++ {
				select {
				case in := <-dst.Recv():
					wire.PutMessage(in.Msg)
					got++
				case <-timeout.C:
					break recv // lost datagrams: give the credit back anyway
				}
			}
			credits <- struct{}{}
		}
		done <- got
	}()
	t0 := time.Now()
	for w := 0; w < windows; w++ {
		<-credits
		for i := 0; i < window; i++ {
			if err := src.SendBatch(2, msg); err != nil {
				break
			}
		}
		_ = src.Flush() // loss on loopback shows up as a lower count
	}
	got := <-done
	return float64(got) / time.Since(t0).Seconds()
}

// driveRS times Reed-Solomon encode and reconstruct at the bulk layer's
// default geometry.
func driveRS(m map[string]float64) {
	const gens = 256
	k, r, sym := bulk.DefaultDataShards, bulk.DefaultRepairShards, bulk.DefaultSymbolSize
	rs, err := fec.NewRS(k, r)
	if err != nil {
		return
	}
	shards := make([][]byte, k+r)
	for i := 0; i < k; i++ {
		shards[i] = make([]byte, sym)
		for j := range shards[i] {
			shards[i][j] = byte(i*31 + j)
		}
	}
	t0 := time.Now()
	for g := 0; g < gens; g++ {
		if err := rs.Encode(shards); err != nil {
			return
		}
	}
	m["fec.rs_encode_MBps"] = float64(gens*k*sym) / 1e6 / time.Since(t0).Seconds()
	lost := make([][]byte, k+r)
	t0 = time.Now()
	for g := 0; g < gens; g++ {
		copy(lost, shards)
		for i := 0; i < r; i++ {
			lost[i] = nil // lose as many data symbols as the code repairs
		}
		if err := rs.Reconstruct(lost); err != nil {
			return
		}
	}
	m["fec.rs_reconstruct_MBps"] = float64(gens*k*sym) / 1e6 / time.Since(t0).Seconds()
}

// driveXor times the media channel's XOR parity encoder per frame.
func driveXor(m map[string]float64, frame, block int) {
	const iters = 100_000
	enc, err := fec.NewEncoder(block)
	if err != nil {
		return
	}
	payload := make([]byte, frame)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		enc.Add(uint64(i+1), payload)
	}
	m["fec.xor_add_ns_per_frame"] = float64(time.Since(t0)) / iters
}
