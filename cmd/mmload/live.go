package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"scalamedia"
	"scalamedia/internal/transport"
)

// Message ids. The generator puts a 16-byte header in front of every
// payload: the id (phase, sender, per-sender sequence number) and the
// instant the message was due, in nanoseconds since the run's base time.
// Receivers read both back, so nothing but the payload links generator
// and checker.
const (
	payloadHeader = 16

	phaseWarm = 0 // warm-up: delivered and checked, not measured
	phaseA    = 1 // open loop at a fixed rate: latency
	phaseB    = 2 // closed loop against the slowest receiver: throughput
)

func makeID(phase, sender int, seq uint64) uint64 {
	return uint64(phase)<<56 | uint64(sender)<<48 | seq
}
func idPhase(msgID uint64) int  { return int(msgID >> 56) }
func idSender(msgID uint64) int { return int(msgID >> 48 & 0xff) }
func idSeq(msgID uint64) uint64 { return msgID & (1<<48 - 1) }

// stampPayload writes the header into buf, which already holds the
// seeded filler bytes behind it.
func stampPayload(buf []byte, msgID uint64, due int64) {
	binary.BigEndian.PutUint64(buf[0:8], msgID)
	binary.BigEndian.PutUint64(buf[8:16], uint64(due))
}

// clusterSpec describes a group of live nodes in this process.
type clusterSpec struct {
	n        int
	ordering scalamedia.Ordering
	// link, when non-nil, puts the nodes on an in-process fabric with
	// that default link and fabricSeed; otherwise they use loopback UDP.
	link       *transport.LinkConfig
	fabricSeed int64
	tick       time.Duration
	// mediaCapacity is each node's QoS budget (0: no admission control).
	mediaCapacity float64
	// tracer, when non-nil, wraps every endpoint in a tap.
	tracer *tracer
	// onEvent returns node i's (1-based) event callback.
	onEvent func(node int) func(scalamedia.Event)
}

// cluster is a started group: nodes[i] has NodeID i+1.
type cluster struct {
	nodes  []*scalamedia.Node
	fab    *transport.Fabric
	taps   []*tap
	joinMs []float64 // per node: Start call -> admitted (holds a view with itself in it)
}

// startCluster starts spec.n nodes one after another, node 1 first as the
// contact of the others, and waits until each holds the full view.
func startCluster(spec clusterSpec) (*cluster, error) {
	c := &cluster{}
	if spec.link != nil {
		c.fab = transport.NewFabric(transport.WithSeed(spec.fabricSeed), transport.WithDefaultLink(*spec.link))
	}
	// On UDP the traced run opens the sockets itself, because a node
	// given an Endpoint neither binds nor learns peer addresses: every
	// pair is registered on the real endpoints before they are wrapped.
	var udps []*transport.UDPEndpoint
	if spec.link == nil && spec.tracer != nil {
		for i := 1; i <= spec.n; i++ {
			u, err := transport.ListenUDP(scalamedia.NodeID(i), "127.0.0.1:0")
			if err != nil {
				for _, o := range udps {
					o.Close()
				}
				return nil, fmt.Errorf("listen node %d: %w", i, err)
			}
			udps = append(udps, u)
		}
		for i, u := range udps {
			for j, peer := range udps {
				if i != j {
					if err := u.AddPeer(scalamedia.NodeID(j+1), peer.LocalAddr().String()); err != nil {
						return nil, fmt.Errorf("add peer: %w", err)
					}
				}
			}
		}
	}
	for i := 1; i <= spec.n; i++ {
		cfg := scalamedia.Config{
			Self:          scalamedia.NodeID(i),
			Group:         1,
			Ordering:      spec.ordering,
			Tick:          spec.tick,
			MediaCapacity: spec.mediaCapacity,
			OnEvent:       spec.onEvent(i),
		}
		if i > 1 {
			cfg.Contact = 1
		}
		var ep transport.Endpoint
		switch {
		case c.fab != nil:
			var err error
			if ep, err = c.fab.Attach(scalamedia.NodeID(i)); err != nil {
				c.close()
				return nil, fmt.Errorf("attach node %d: %w", i, err)
			}
		case udps != nil:
			ep = udps[i-1]
		default:
			cfg.ListenAddr = "127.0.0.1:0"
			if i > 1 {
				cfg.Peers = map[scalamedia.NodeID]string{1: c.nodes[0].Addr()}
			}
		}
		if ep != nil && spec.tracer != nil {
			t := newTap(ep, spec.tracer)
			c.taps = append(c.taps, t)
			ep = t
		}
		cfg.Endpoint = ep
		started := time.Now()
		n, err := scalamedia.Start(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		// Nodes join one at a time. Started together, joins race with the
		// view change of the previous one and a deferred join waits out a
		// 0.6 s retry about one start in four (README.md, findings), which
		// would make setup_s bimodal.
		if !n.WaitViewSize(i, 20*time.Second) {
			c.close()
			return nil, fmt.Errorf("node %d was not admitted", i)
		}
		c.joinMs = append(c.joinMs, float64(time.Since(started))/1e6)
	}
	for _, n := range c.nodes {
		if !n.WaitViewSize(spec.n, 20*time.Second) {
			c.close()
			return nil, fmt.Errorf("node %s never held the full view", n.ID())
		}
	}
	return c, nil
}

// close stops every node and the fabric; it returns once their
// goroutines have exited.
func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	if c.fab != nil {
		c.fab.Close()
	}
}

// counters sums the named registry counter over all nodes.
func (c *cluster) counters() map[string]uint64 {
	sum := make(map[string]uint64)
	for _, n := range c.nodes {
		for k, v := range n.Snapshot().Counters {
			sum[k] += v
		}
	}
	// The wire pool counters are process-wide, so every node reports the
	// same value; undo the multiplication.
	for k := range sum {
		if strings.HasPrefix(k, "wire.pool.") {
			sum[k] /= uint64(len(c.nodes))
		}
	}
	return sum
}

// counterDelta returns after-before per counter.
func counterDelta(before, after map[string]uint64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = float64(v) - float64(before[k])
	}
	return d
}

// repeatSetup runs setup reps times, tearing down all but the last
// instance, which it returns for the run to use along with every
// repetition's set-up time in seconds.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var secs []float64
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return last, secs, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = inst
	}
	return last, secs, nil
}

// msgRec is one node's record of application messages. Only that node's
// event loop writes it (the callback runs there); the generator reads the
// atomics while the run is live and the rest after the node has closed.
type msgRec struct {
	self      int
	total     bool // record the delivery sequence for the total-order check
	tr        *tracer
	base      time.Time
	delivered atomic.Int64  // every phase; paces the closed loop and the drain
	wake      chan struct{} // cap 1: nudges a generator blocked on its window
	evicted   atomic.Bool

	count      [3]int64    // deliveries by phase
	latA       []timed     // phase A, other nodes' messages: due -> callback
	next       [256]uint64 // per sender: last sequence number delivered
	order      []uint64    // total-order check: ids in delivery order
	violations int         // deliveries that broke exactly-once or sender order
	firstBad   string      // the first of them
}

func (r *msgRec) violate(format string, args ...any) {
	if r.violations == 0 {
		r.firstBad = fmt.Sprintf(format, args...)
	}
	r.violations++
}

// report counts what the recorder found wrong as failed operations. The
// node must have closed.
func (r *msgRec) report(rc *runCtx) {
	if r.violations > 0 {
		rc.failN(r.violations, "node %d: %d bad deliveries, first: %s", r.self, r.violations, r.firstBad)
	}
	if r.evicted.Load() {
		rc.failf("node %d was evicted", r.self)
	}
}

// onEvent is the node's OnEvent callback.
func (r *msgRec) onEvent(ev scalamedia.Event) {
	switch ev.Kind {
	case scalamedia.SelfEvicted:
		r.evicted.Store(true)
	case scalamedia.MessageReceived:
		now := int64(time.Since(r.base))
		p := ev.Payload
		if len(p) < payloadHeader {
			r.violate("payload of %d bytes has no header", len(p))
			return
		}
		msgID := binary.BigEndian.Uint64(p[0:8])
		due := int64(binary.BigEndian.Uint64(p[8:16]))
		phase, sender, seq := idPhase(msgID), idSender(msgID), idSeq(msgID)
		if phase > phaseB || sender != int(ev.Node) {
			r.violate("message %x claims phase %d sender %d, came from %d", msgID, phase, sender, ev.Node)
			return
		}
		// Exactly once and in each sender's order: the sequence numbers
		// of one sender arrive as 1, 2, 3, ...
		if want := r.next[sender] + 1; seq != want {
			r.violate("sender %d: got seq %d, want %d", sender, seq, want)
		}
		if seq > r.next[sender] {
			r.next[sender] = seq
		}
		if r.total {
			r.order = append(r.order, msgID)
		}
		r.count[phase]++
		if phase == phaseA && sender != r.self {
			r.latA = append(r.latA, timed{due, float64(now-due) / 1e6})
		}
		r.delivered.Add(1)
		select {
		case r.wake <- struct{}{}:
		default:
		}
		if r.tr != nil && sampled(msgID) && sender != r.self {
			r.tr.delivered(msgID, r.self, now, int64(time.Since(r.base)))
		}
	}
}

// procSample is a reading of the process's resource counters.
type procSample struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

// sampleProc reads the clock, the process's CPU time and the allocator's
// counters. ReadMemStats stops the world for some tens of microseconds,
// so samples are taken between phases, never inside one.
func sampleProc() procSample {
	s := procSample{at: time.Now(), cpu: processCPU()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// procUse is what the process consumed over one or more measured
// intervals.
type procUse struct {
	wall, cpu                      time.Duration
	mallocs, allocBytes, gcPauseNs float64
}

// add accounts the interval between two samples.
func (u *procUse) add(before, after procSample) {
	u.wall += after.at.Sub(before.at)
	u.cpu += after.cpu - before.cpu
	u.mallocs += float64(after.mem.Mallocs - before.mem.Mallocs)
	u.allocBytes += float64(after.mem.TotalAlloc - before.mem.TotalAlloc)
	u.gcPauseNs += float64(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
}
