package main

import (
	"slices"
	"time"

	"scalamedia"
	"scalamedia/internal/workload"
)

// msgParams shapes one of the two loopback-UDP messaging workloads.
type msgParams struct {
	ordering scalamedia.Ordering
	nodes    int
	senders  []int   // node IDs the generator round-robins across
	payload  int     // bytes, header included
	rateA    float64 // phase A: aggregate open-loop rate, msg/s
	window   int     // phase B: messages outstanding against the slowest receiver
}

var (
	fifoSmallUDP = msgParams{ordering: scalamedia.FIFO, nodes: 4, senders: []int{1}, payload: 64, rateA: 5000, window: 64}
	// Window 64 is deliberate: at 256 and more outstanding the total-order
	// closed loop is metastable on two cores (see README.md, findings).
	total1kUDP = msgParams{ordering: scalamedia.Total, nodes: 4, senders: []int{1, 2, 3, 4}, payload: 1024, rateA: 2000, window: 64}
)

// msgGroup is a started cluster with its per-node recorders.
type msgGroup struct {
	c    *cluster
	recs []*msgRec
	wake chan struct{}
}

func (g *msgGroup) close() { g.c.close() }

func startMsgGroup(rc *runCtx, p msgParams, tr *tracer) (*msgGroup, error) {
	g := &msgGroup{wake: make(chan struct{}, 1)}
	for i := 1; i <= p.nodes; i++ {
		g.recs = append(g.recs, &msgRec{self: i, total: p.ordering == scalamedia.Total, tr: tr, base: rc.base, wake: g.wake})
	}
	c, err := startCluster(clusterSpec{
		n: p.nodes, ordering: p.ordering, tracer: tr,
		onEvent: func(node int) func(scalamedia.Event) { return g.recs[node-1].onEvent },
	})
	if err != nil {
		return nil, err
	}
	g.c = c
	return g, nil
}

// minDelivered is the delivery count of the slowest node.
func (g *msgGroup) minDelivered() int64 {
	min := g.recs[0].delivered.Load()
	for _, r := range g.recs[1:] {
		if d := r.delivered.Load(); d < min {
			min = d
		}
	}
	return min
}

// sumDelivered is the delivery count over all nodes.
func (g *msgGroup) sumDelivered() int64 {
	var sum int64
	for _, r := range g.recs {
		sum += r.delivered.Load()
	}
	return sum
}

// collect reads the recorders of a closed group: it checks that every
// node, the sender included, delivered every message of every sender once
// (sent holds the counts by node ID), reports what the recorders found
// wrong, and returns the phase A latencies and the deliveries by phase.
func (g *msgGroup) collect(rc *runCtx, sent []uint64) (lat []timed, count [3]float64) {
	for _, r := range g.recs {
		lat = append(lat, r.latA...)
		for ph, n := range r.count {
			count[ph] += float64(n)
		}
		for s := 1; s < len(sent); s++ {
			if r.next[s] != sent[s] {
				rc.failN(int(sent[s])-int(r.next[s]), "node %d delivered %d of sender %d's %d messages", r.self, r.next[s], s, sent[s])
			}
		}
		r.report(rc)
	}
	return lat, count
}

// msgGen is the single generator goroutine's state.
type msgGen struct {
	rc   *runCtx
	p    msgParams
	g    *msgGroup
	tr   *tracer
	buf  []byte
	seq  []uint64 // per node ID: messages sent
	rr   int
	sent int64 // all phases
	warm int64 // of which warm-up

	rates      []float64 // phase B: deliveries per second at all nodes, per slice
	sendErrs   int
	lateMaxMs  float64
	sendCallUs []float64
}

// send issues the next message, due at the given instant (ns since base).
func (m *msgGen) send(phase int, due int64) {
	sender := m.p.senders[m.rr%len(m.p.senders)]
	m.rr++
	m.seq[sender]++
	msgID := makeID(phase, sender, m.seq[sender])
	stampPayload(m.buf, msgID, due)
	start := int64(time.Since(m.rc.base))
	err := m.g.c.nodes[sender-1].Send(m.buf)
	if err != nil {
		m.sendErrs++
		m.seq[sender]--
		m.rc.failf("node %d Send: %v", sender, err)
		return
	}
	m.sent++
	if phase == phaseWarm {
		m.warm++
	}
	if late := float64(start-due) / 1e6; late > m.lateMaxMs && phase != phaseB {
		m.lateMaxMs = late
	}
	if m.tr != nil && sampled(msgID) {
		end := int64(time.Since(m.rc.base))
		m.tr.sent(msgID, due, start, end)
		m.sendCallUs = append(m.sendCallUs, float64(end-start)/1e3)
	}
}

// openLoop sends Poisson arrivals at the given rate for d, each message
// stamped with its due time on an absolute schedule (no drift: a late
// send does not move later ones).
func (m *msgGen) openLoop(phase int, rate float64, d time.Duration, seed int64) {
	arrivals := workload.NewPoisson(seed, time.Duration(float64(time.Second)/rate), 0)
	start := time.Since(m.rc.base)
	for {
		off := arrivals.Next()
		if off >= d {
			return
		}
		due := start + off
		waitUntil(m.rc.base, due)
		m.send(phase, int64(due))
	}
}

// waitUntil returns once due (since base) has passed.
func waitUntil(base time.Time, due time.Duration) {
	for {
		wait := due - time.Since(base)
		if wait <= 0 {
			return
		}
		preciseSleep(wait)
	}
}

// rateSlice is how long a slice of the closed-loop phase lasts; the
// phase's rate is the median over its slices, which keeps any one stall
// out of the figure. The slices of the first rateRamp are left out: after
// the step from the open-loop rate to saturation the group ran at 60 to
// 75 % of its settled rate for about a second.
const (
	rateSlice = 250 * time.Millisecond
	rateRamp  = time.Second
)

// closedLoop sends as fast as the window allows for d: the next message
// goes out only while fewer than window are outstanding at the slowest
// node. It records the group's delivery rate per slice, and reports false
// if the group stopped making progress.
func (m *msgGen) closedLoop(d time.Duration) bool {
	start := time.Now()
	sliceAt, sliceBase := start, m.g.sumDelivered()
	for time.Since(start) < d {
		if el := time.Since(sliceAt); el >= rateSlice {
			sum := m.g.sumDelivered()
			if sliceAt.Sub(start) >= rateRamp {
				m.rates = append(m.rates, float64(sum-sliceBase)/el.Seconds())
			}
			sliceAt, sliceBase = time.Now(), sum
		}
		stalled := time.Now()
		for m.sent-m.g.minDelivered() >= int64(m.p.window) {
			select {
			case <-m.g.wake:
			case <-time.After(50 * time.Millisecond):
			}
			if time.Since(stalled) > m.rc.sz.drain {
				return false
			}
		}
		m.send(phaseB, int64(time.Since(m.rc.base)))
	}
	return true
}

// drain waits until every node has delivered everything sent.
func (m *msgGen) drain() bool {
	deadline := time.Now().Add(m.rc.sz.drain)
	for m.g.minDelivered() < m.sent {
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-m.g.wake:
		case <-time.After(10 * time.Millisecond):
		}
	}
	return true
}

// msgOutcome accumulates what the passes of one run measured.
type msgOutcome struct {
	lat        []timed            // phase A latencies, all receivers
	rates      []float64          // phase B deliveries per second at all nodes, per slice
	deliveries float64            // phases A and B, all nodes
	expected   float64            // messages sent in A and B times the group size
	bDeliv     float64            // phase B deliveries and the time they took:
	bSecs      float64            // the rate when a phase is too short for slices
	use        procUse            // over A and B
	counters   map[string]float64 // registry counter deltas over A and B
	openLoop   time.Duration      // time the generator spent on open-loop schedules
	lateMaxMs  float64            // the furthest it fell behind one
	sendCallUs []float64
}

// bRate is the closed-loop delivery rate: the median slice.
func (o *msgOutcome) bRate() float64 {
	if len(o.rates) >= 3 {
		return quantile(o.rates, 0.5)
	}
	return ratio(o.bDeliv, o.bSecs)
}

// runMsgPhases drives one pass — warm-up, phase A and phase B (either may
// be zero length) — over a started group, drains, closes the group, checks
// what every node delivered and adds the measurements to o. pass varies
// the arrival schedule between passes of one run.
func runMsgPhases(rc *runCtx, p msgParams, g *msgGroup, tr *tracer, durA, durB time.Duration, pass int, probe *liveProbe, o *msgOutcome) {
	gen := &msgGen{rc: rc, p: p, g: g, tr: tr, seq: make([]uint64, p.nodes+1)}
	gen.buf = workload.New(rc.seed + 3).Payload(p.payload)
	seed := rc.seed + int64(pass)*101
	gen.openLoop(phaseWarm, p.rateA, rc.sz.warm, seed+11)
	gen.drain()

	ctrBefore := g.c.counters()
	if probe != nil {
		probe.start()
	}
	before := sampleProc()
	gen.openLoop(phaseA, p.rateA, durA, seed+12)
	bStart := time.Now()
	progressed := durB == 0 || gen.closedLoop(durB)
	drained := gen.drain()
	o.use.add(before, sampleProc())
	o.bSecs += time.Since(bStart).Seconds()
	if probe != nil {
		probe.stop()
	}
	if o.counters == nil {
		o.counters = make(map[string]float64)
	}
	for k, v := range counterDelta(ctrBefore, g.c.counters()) {
		o.counters[k] += v
	}
	if !progressed {
		rc.failf("closed loop made no progress for %v", rc.sz.drain)
	}
	if !drained {
		rc.failf("drain: slowest node delivered %d of %d after %v", g.minDelivered(), gen.sent, rc.sz.drain)
	}
	g.close() // the event loops have exited: the recorders are ours to read

	lat, count := g.collect(rc, gen.seq)
	o.lat = append(o.lat, lat...)
	o.deliveries += count[phaseA] + count[phaseB]
	o.bDeliv += count[phaseB]
	if p.ordering == scalamedia.Total {
		for _, r := range g.recs[1:] {
			if !slices.Equal(g.recs[0].order, r.order) {
				rc.failf("total order: node %d's delivery sequence differs from node 1's", r.self)
			}
		}
	}
	rc.checkNoEvictions(o.counters)
	o.openLoop += durA + rc.sz.warm
	o.rates = append(o.rates, gen.rates...)
	o.expected += float64(gen.sent-gen.warm) * float64(p.nodes)
	o.sendCallUs = append(o.sendCallUs, gen.sendCallUs...)
	if gen.lateMaxMs > o.lateMaxMs {
		o.lateMaxMs = gen.lateMaxMs
	}
	rc.out.Attempted += int(gen.sent)*p.nodes + gen.sendErrs
}

// runMessaging is the body of fifo-small-udp and total-1k-udp.
func runMessaging(rc *runCtx, p msgParams) error {
	m := rc.out.Metrics
	if !rc.traced {
		// Phase A is split over sz.setups freshly started groups: the
		// set-ups give setup_s its repetitions, and because a group's
		// latency settles at a slightly different level each time it is
		// started, pooling several groups steadies the percentiles. Phase
		// B runs once, on the last group: every start costs it a ramp.
		var o msgOutcome
		var setups []float64
		k := time.Duration(rc.sz.setups)
		for pass := 0; pass < rc.sz.setups; pass++ {
			t0 := time.Now()
			g, err := startMsgGroup(rc, p, nil)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			durB := time.Duration(0)
			if pass == rc.sz.setups-1 {
				durB = rc.dur / 2
			}
			runMsgPhases(rc, p, g, nil, rc.dur/2/k, durB, pass, nil, &o)
		}
		rc.checkLate(o.lateMaxMs, o.openLoop)
		m["setup_s"] = quantile(setups, 0.5)
		m["deliver_p50_ms"] = windowQuantile(o.lat, 0.5)
		m["deliver_p90_ms"] = windowQuantile(o.lat, 0.9)
		m["deliveries_per_s"] = o.bRate()
		m["allocs_per_delivery"] = ratio(o.use.mallocs, o.deliveries)
		m["goodput_MBps"] = o.bRate() * float64(p.payload) / 1e6
		m["datagrams_per_delivery"] = ratio(o.counters["transport.datagrams_sent"], o.deliveries)
		m["delivered_pct"] = 100 * ratio(o.deliveries, o.expected)
		return nil
	}

	// Traced: a short untraced reference pass gives the latency the
	// tracing overhead is measured against, then the traced pass runs at
	// half length.
	ref, err := startMsgGroup(rc, p, nil)
	if err != nil {
		return err
	}
	var refOut msgOutcome
	runMsgPhases(rc, p, ref, nil, rc.dur/4, 0, 0, nil, &refOut)

	rc.tr = newTracer(rc.base)
	g, err := startMsgGroup(rc, p, rc.tr)
	if err != nil {
		return err
	}
	probe := newLiveProbe(g.c, p.senders[0], nil)
	var o msgOutcome
	runMsgPhases(rc, p, g, rc.tr, rc.dur/4, rc.dur/4, 1, probe, &o)

	rc.checkLate(max(o.lateMaxMs, refOut.lateMaxMs), o.openLoop+refOut.openLoop)
	fillTraced(rc, g.c, o.lat, refOut.lat)
	m["api.send_call_us_p50"] = quantile(o.sendCallUs, 0.5)
	m["api.gen_late_ms_max"] = o.lateMaxMs
	probe.fill(m, o.counters, o.deliveries, o.use)
	driveWire(m, p.payload, p.nodes)
	driveRmcast(m, p.payload, p.nodes, p.ordering)
	ceiling := driveUDPCeiling(p.payload)
	m["transport.udp_ceiling_datagrams_per_s"] = ceiling
	// The whole group's datagram rate over the measured phases as a share
	// of what one loopback socket pair moves.
	m["transport.ceiling_share_pct"] = 100 * ratio(ratio(o.counters["transport.datagrams_sent"], o.use.wall.Seconds()), ceiling)
	return nil
}
