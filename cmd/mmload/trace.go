package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// sampleEvery is the tracing sample rate: one message in this many gets
// spans, identified by the id the generator put in its payload.
const sampleEvery = 64

// sessionOpData is the one-byte tag internal/session puts in front of an
// application payload. The tap reads it to find the generator's id in a
// datagram; the self-test fails if a traced run matches no datagram, so a
// change of that framing cannot pass silently.
const sessionOpData = 1

// span is one traced interval. Times are nanoseconds since the tracer's
// base; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Msg    uint64 `json:"msg"`
}

// rxStamps are one receiver's boundary times for one sampled message.
type rxStamps struct {
	queueOut     int64 // datagram left the endpoint's Recv()
	deliverStart int64 // MessageReceived callback entered
	deliverEnd   int64 // callback returned
}

// msgStamps are the boundary times of one sampled message.
type msgStamps struct {
	due, sendStart, sendEnd int64
	txStart, txEnd          int64 // origin tap: first SendBatch, end of the Flush after it
	rx                      map[int]*rxStamps
}

// tracer collects boundary stamps for sampled messages from the
// generator, the endpoint taps and the delivery callbacks, and turns them
// into spans when the run ends. Everything stays in memory until then.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	msgs  map[uint64]*msgStamps
	extra []span // spans recorded directly (bulk objects, simulator runs)
}

// newTracer returns a tracer whose stamps count from base, the run's
// common time origin.
func newTracer(base time.Time) *tracer {
	return &tracer{base: base, msgs: make(map[uint64]*msgStamps)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// sampled reports whether the message with this id is traced: one in
// sampleEvery of the open-loop phase, whose latency the spans explain.
func sampled(msgID uint64) bool {
	return idPhase(msgID) == phaseA && idSeq(msgID)%sampleEvery == 0
}

func (t *tracer) stamps(msgID uint64) *msgStamps {
	m := t.msgs[msgID]
	if m == nil {
		m = &msgStamps{rx: make(map[int]*rxStamps)}
		t.msgs[msgID] = m
	}
	return m
}

func (t *tracer) rxOf(msgID uint64, node int) *rxStamps {
	m := t.stamps(msgID)
	r := m.rx[node]
	if r == nil {
		r = &rxStamps{}
		m.rx[node] = r
	}
	return r
}

// sent records the generator's side of a sampled message.
func (t *tracer) sent(msgID uint64, due, start, end int64) {
	t.mu.Lock()
	m := t.stamps(msgID)
	m.due, m.sendStart, m.sendEnd = due, start, end
	t.mu.Unlock()
}

// delivered records a receiver's callback interval.
func (t *tracer) delivered(msgID uint64, node int, start, end int64) {
	t.mu.Lock()
	r := t.rxOf(msgID, node)
	if r.deliverStart == 0 {
		r.deliverStart, r.deliverEnd = start, end
	}
	t.mu.Unlock()
}

// addSpan records a finished span directly and returns its index.
func (t *tracer) addSpan(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.extra = append(t.extra, s)
	return len(t.extra) - 1
}

// spans builds the span tree of every sampled message whose stamps are
// complete: gen.late -> api.send -> transport.tx -> per receiver
// transport.rx -> stack.deliver -> app.callback.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.extra...)
	ids := make([]uint64, 0, len(t.msgs))
	for msgID := range t.msgs {
		ids = append(ids, msgID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, msgID := range ids {
		m := t.msgs[msgID]
		if m.sendStart == 0 || m.txStart == 0 || m.txEnd == 0 {
			continue
		}
		add := func(name string, start, end int64, parent int) int {
			out = append(out, span{Name: name, Start: start, End: end, Parent: parent, Msg: msgID})
			return len(out) - 1
		}
		late := add("gen.late", m.due, m.sendStart, -1)
		send := add("api.send", m.sendStart, m.sendEnd, late)
		tx := add("transport.tx", m.txStart, m.txEnd, send)
		nodes := make([]int, 0, len(m.rx))
		for n := range m.rx {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			r := m.rx[n]
			if r.queueOut == 0 || r.deliverStart == 0 {
				continue
			}
			rx := add("transport.rx", m.txEnd, r.queueOut, tx)
			dl := add("stack.deliver", r.queueOut, r.deliverStart, rx)
			add("app.callback", r.deliverStart, r.deliverEnd, dl)
		}
	}
	return out
}

// selfTimes returns, per span name, every span's self time in
// milliseconds: its duration minus the part of it its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			cs, ce := spans[k].Start, spans[k].End
			if cs < edge {
				cs = edge
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		out[s.Name] = append(out[s.Name], float64(dur-covered)/1e6)
	}
	return out
}

// latencyLayers are the spans whose self times add up to the send-to-
// deliver latency (the callback itself runs after the message counts as
// delivered).
var latencyLayers = []string{"gen.late", "api.send", "transport.tx", "transport.rx", "stack.deliver"}

// layerTable renders the median self time of each layer and their sum
// against the untraced median latency, and returns the sum.
func layerTable(self map[string][]float64, untracedP50 float64) (string, float64) {
	var sum float64
	s := "  layer            samples  self p50 (ms)\n"
	for _, name := range append(append([]string(nil), latencyLayers...), "app.callback") {
		med := quantile(self[name], 0.5)
		s += fmt.Sprintf("  %-16s %7d  %13.4f\n", name, len(self[name]), med)
		if name != "app.callback" {
			sum += med
		}
	}
	s += fmt.Sprintf("  sum of layers %.4f ms vs untraced deliver_p50_ms %.4f ms (base): %+.1f%%\n",
		sum, untracedP50, 100*ratio(sum-untracedP50, untracedP50))
	return s, sum
}

// fillTraced turns a traced messaging pass into the per-layer metrics the
// spans and taps yield: the latency tail, the tracing overhead against the
// untraced reference pass, the layer table and the three transport and
// rmcast intervals. lat and refLat are the traced and reference passes'
// phase A latencies.
func fillTraced(rc *runCtx, c *cluster, lat, refLat []timed) {
	m := rc.out.Metrics
	refP50 := windowQuantile(refLat, 0.5)
	ms := millis(lat)
	m["api.deliver_p99_ms"] = quantile(ms, 0.99)
	m["api.deliver_p999_ms"] = quantile(ms, 0.999)
	m["api.deliver_samples"] = float64(len(ms))
	m["api.trace_overhead_pct"] = 100 * ratio(windowQuantile(lat, 0.5)-refP50, refP50)
	m["member.join_ms_p50"] = quantile(c.joinMs, 0.5)

	rc.spans = rc.tr.spans()
	self := selfTimes(rc.spans)
	table, sum := layerTable(self, refP50)
	rc.out.LayerTable = table
	m["api.layer_sum_vs_p50_pct"] = 100 * ratio(sum-refP50, refP50)
	m["transport.wire_to_queue_us_p50"] = 1e3 * quantile(self["transport.rx"], 0.5)
	m["rmcast.rx_to_deliver_ms_p50"] = quantile(self["stack.deliver"], 0.5)
	m["transport.flush_us_p50"] = quantile(c.flushTimes(), 0.5)
}

// writeTrace stores the spans as DIR/<workload>.trace.json.
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tap decorates a node's transport endpoint for the traced run. It stamps
// sampled messages where they enter the send queue, when the queue is
// flushed to the network, and when they leave the receive queue, and it
// times every flush. It forwards the optional transport interfaces so the
// node keeps its batched sends, transport counters, reachability guard
// and address learning.
type tap struct {
	inner transport.Endpoint
	bs    transport.BatchSender // nil when inner cannot batch
	self  int
	tr    *tracer
	out   chan transport.Inbound

	mu      sync.Mutex
	queued  int      // datagrams queued since the last flush
	pending []uint64 // sampled ids waiting for that flush
	flushUs []float64
}

var (
	_ transport.Endpoint     = (*tap)(nil)
	_ transport.BatchSender  = (*tap)(nil)
	_ transport.Instrumented = (*tap)(nil)
	_ transport.Reachability = (*tap)(nil)
	_ transport.AddrLearner  = (*tap)(nil)
)

// newTap wraps inner and starts the pump that stamps inbound datagrams as
// they leave inner's receive queue. The pump ends when inner is closed.
func newTap(inner transport.Endpoint, tr *tracer) *tap {
	t := &tap{inner: inner, self: int(inner.Self()), tr: tr, out: make(chan transport.Inbound)}
	t.bs, _ = inner.(transport.BatchSender)
	go t.pump()
	return t
}

func (t *tap) pump() {
	defer close(t.out)
	for in := range t.inner.Recv() {
		if msgID, ok := tracedID(in.Msg); ok && idSender(msgID) != t.self {
			now := t.tr.now()
			t.tr.mu.Lock()
			if r := t.tr.rxOf(msgID, t.self); r.queueOut == 0 {
				r.queueOut = now
			}
			t.tr.mu.Unlock()
		}
		t.out <- in
	}
}

// tracedID extracts the generator's id from a data datagram and reports
// whether that message is sampled.
func tracedID(msg *wire.Message) (uint64, bool) {
	if msg.Kind != wire.KindData && msg.Kind != wire.KindRetrans {
		return 0, false
	}
	if len(msg.Body) < 1+payloadHeader || msg.Body[0] != sessionOpData {
		return 0, false
	}
	msgID := binary.BigEndian.Uint64(msg.Body[1:9])
	return msgID, sampled(msgID)
}

func (t *tap) Self() id.Node                  { return t.inner.Self() }
func (t *tap) Recv() <-chan transport.Inbound { return t.out }
func (t *tap) Close() error                   { return t.inner.Close() }

// originOf returns the generator's id when msg is a sampled message this
// node originates (a first transmission, not a repair).
func (t *tap) originOf(msg *wire.Message) (uint64, bool) {
	msgID, ok := tracedID(msg)
	return msgID, ok && msg.Kind == wire.KindData && idSender(msgID) == t.self
}

// Send is an immediate transmission: its own flush.
func (t *tap) Send(to id.Node, msg *wire.Message) error {
	msgID, mine := t.originOf(msg)
	start := t.tr.now()
	err := t.inner.Send(to, msg)
	end := t.tr.now()
	t.mu.Lock()
	t.flushUs = append(t.flushUs, float64(end-start)/1e3)
	t.mu.Unlock()
	if mine {
		t.tr.mu.Lock()
		if m := t.tr.stamps(msgID); m.txStart == 0 {
			m.txStart, m.txEnd = start, end
		}
		t.tr.mu.Unlock()
	}
	return err
}

// SendBatch stamps a sampled message's first entry into the send queue.
func (t *tap) SendBatch(to id.Node, msg *wire.Message) error {
	if t.bs == nil {
		return t.Send(to, msg)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queued++
	if msgID, mine := t.originOf(msg); mine {
		now := t.tr.now()
		t.tr.mu.Lock()
		if m := t.tr.stamps(msgID); m.txStart == 0 {
			m.txStart = now
			t.pending = append(t.pending, msgID)
		}
		t.tr.mu.Unlock()
	}
	return t.bs.SendBatch(to, msg)
}

// Flush times the transmission of everything queued and closes the
// transmit interval of the sampled messages in it.
func (t *tap) Flush() error {
	if t.bs == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.tr.now()
	err := t.bs.Flush()
	if t.queued == 0 {
		return err
	}
	end := t.tr.now()
	t.flushUs = append(t.flushUs, float64(end-start)/1e3)
	t.queued = 0
	if len(t.pending) > 0 {
		t.tr.mu.Lock()
		for _, msgID := range t.pending {
			t.tr.stamps(msgID).txEnd = end
		}
		t.tr.mu.Unlock()
		t.pending = t.pending[:0]
	}
	return err
}

func (t *tap) SetMetrics(reg *stats.Registry) {
	if inst, ok := t.inner.(transport.Instrumented); ok {
		inst.SetMetrics(reg)
	}
}

// CanReach forwards the inner endpoint's knowledge; an endpoint that
// cannot tell is assumed to reach everyone, as the engines assume.
func (t *tap) CanReach(n id.Node) bool {
	if r, ok := t.inner.(transport.Reachability); ok {
		return r.CanReach(n)
	}
	return true
}

func (t *tap) LearnPeer(n id.Node, addr string) error {
	if l, ok := t.inner.(transport.AddrLearner); ok {
		return l.LearnPeer(n, addr)
	}
	return nil
}

// flushTimes returns every tap's recorded flush durations in microseconds.
func (c *cluster) flushTimes() []float64 {
	var out []float64
	for _, t := range c.taps {
		t.mu.Lock()
		out = append(out, t.flushUs...)
		t.mu.Unlock()
	}
	return out
}
