package main

import (
	"crypto/sha256"
	"sync"
	"time"

	"scalamedia"
	"scalamedia/internal/workload"
)

// The bulk workload: four nodes on loopback UDP; node 1 publishes distinct
// seeded objects one after another, each once every receiver has reported
// the previous one complete.
const bulkNodes = 4

// objEvent is one bulk event seen by a receiving node.
type objEvent struct {
	node        int
	kind        scalamedia.EventKind
	object      uint64
	done, total int
	sum         [sha256.Size]byte // ObjectReceived: digest of the bytes handed up
	at          int64             // ns since base
}

// bulkGroup is a started cluster whose nodes report bulk events.
type bulkGroup struct {
	c      *cluster
	events chan objEvent

	mu      sync.Mutex
	evicted []int
}

func (g *bulkGroup) close() { g.c.close() }

func startBulkGroup(rc *runCtx, tr *tracer) (*bulkGroup, error) {
	// A 1 MiB object is 64 generations, so a receiver emits 65 events per
	// object; the buffer holds every event of several objects so that a
	// node's event loop never waits for the generator to read them.
	g := &bulkGroup{events: make(chan objEvent, 4096)}
	c, err := startCluster(clusterSpec{
		n: bulkNodes, ordering: scalamedia.FIFO, tracer: tr,
		onEvent: func(node int) func(scalamedia.Event) {
			return func(ev scalamedia.Event) {
				switch ev.Kind {
				case scalamedia.SelfEvicted:
					g.mu.Lock()
					g.evicted = append(g.evicted, node)
					g.mu.Unlock()
				case scalamedia.ObjectReceived, scalamedia.ObjectProgress:
					oe := objEvent{node: node, kind: ev.Kind, object: ev.Object, done: ev.Done, total: ev.Total, at: int64(time.Since(rc.base))}
					if ev.Kind == scalamedia.ObjectReceived {
						oe.sum = sha256.Sum256(ev.Payload)
					}
					select {
					case g.events <- oe:
					default: // the generator counts the object as not delivered
					}
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	g.c = c
	return g, nil
}

// bulkOutcome is what the objects of one pass measured.
type bulkOutcome struct {
	objects     float64
	bytes       float64   // object bytes published
	deliverMs   []float64 // per (object, receiver): Publish call -> ObjectReceived
	wholeSecs   float64   // sum over objects: Publish call -> last ObjectReceived
	publishMs   []float64 // time inside Publish
	firstProgMs []float64 // per (object, receiver): Publish return -> first ObjectProgress
	tailMs      []float64 // per (object, receiver): 90 % of generations decoded -> complete
	secs        float64
	use         procUse
	counters    map[string]float64
	perNode     []float64 // bytes each node sent
}

// publishOne publishes one object and waits until every receiver reports
// it complete and intact. It reports false when a receiver never did.
func publishOne(rc *runCtx, g *bulkGroup, tr *tracer, objID uint64, size int, o *bulkOutcome) bool {
	data := workload.New(rc.seed*1000 + int64(objID)).Payload(size)
	want := sha256.Sum256(data)
	t0 := int64(time.Since(rc.base))
	if err := g.c.nodes[0].Publish(objID, data); err != nil {
		rc.failf("Publish object %d: %v", objID, err)
		return false
	}
	t1 := int64(time.Since(rc.base))
	root := -1
	if tr != nil && o != nil {
		root = tr.addSpan(span{Name: "api.publish", Start: t0, End: t1, Parent: -1, Msg: objID})
	}
	receivers := bulkNodes - 1
	firstProg := make(map[int]int64)
	tailFrom := make(map[int]int64)
	complete := 0
	var last int64
	// A healthy transfer takes 2 to 3 s on the reference host; ten times
	// that plus the drain bound means a receiver is stuck.
	deadline := time.After(30*time.Second + rc.sz.drain)
	for complete < receivers {
		select {
		case ev := <-g.events:
			if ev.object != objID {
				continue
			}
			switch ev.kind {
			case scalamedia.ObjectProgress:
				if _, ok := firstProg[ev.node]; !ok {
					firstProg[ev.node] = ev.at
				}
				if _, ok := tailFrom[ev.node]; !ok && ev.done*10 >= ev.total*9 {
					tailFrom[ev.node] = ev.at
				}
			case scalamedia.ObjectReceived:
				complete++
				last = ev.at
				if ev.sum != want {
					rc.failf("object %d at node %d does not match its SHA-256", objID, ev.node)
				}
				if o == nil {
					continue
				}
				o.deliverMs = append(o.deliverMs, float64(ev.at-t0)/1e6)
				if fp, ok := firstProg[ev.node]; ok {
					o.firstProgMs = append(o.firstProgMs, float64(fp-t1)/1e6)
				}
				if tf, ok := tailFrom[ev.node]; ok {
					o.tailMs = append(o.tailMs, float64(ev.at-tf)/1e6)
				}
				if tr != nil {
					tr.addSpan(span{Name: "bulk.transfer", Start: t1, End: ev.at, Parent: root, Msg: objID})
				}
			}
		case <-deadline:
			rc.failN(receivers-complete, "object %d reached %d of %d receivers", objID, complete, receivers)
			return false
		}
	}
	if o != nil {
		o.objects++
		o.bytes += float64(size)
		o.wholeSecs += float64(last-t0) / 1e9
		o.publishMs = append(o.publishMs, float64(t1-t0)/1e6)
	}
	return true
}

// runBulkPhases publishes a small warm-up object, then full-size objects
// back to back for d, closes the group and returns what they measured.
func runBulkPhases(rc *runCtx, g *bulkGroup, tr *tracer, d time.Duration, probe *liveProbe) bulkOutcome {
	var o bulkOutcome
	objID := uint64(1)
	publishOne(rc, g, tr, objID, rc.sz.objectSize/16, nil)

	sentBefore := make([]float64, bulkNodes)
	for i, n := range g.c.nodes {
		sentBefore[i] = float64(n.Snapshot().Counters["transport.bytes_sent"])
	}
	ctrBefore := g.c.counters()
	if probe != nil {
		probe.start()
	}
	before := sampleProc()
	start := time.Now()
	// Another object starts only if, going by the last one, it would end
	// inside the run; at least two are published.
	var lastDur time.Duration
	for o.objects < 2 || time.Since(start)+lastDur <= d {
		objID++
		t0 := time.Now()
		rc.out.Attempted += bulkNodes - 1
		if !publishOne(rc, g, tr, objID, rc.sz.objectSize, &o) {
			break
		}
		lastDur = time.Since(t0)
	}
	o.use.add(before, sampleProc())
	if probe != nil {
		probe.stop()
	}
	o.secs = time.Since(start).Seconds()
	o.counters = counterDelta(ctrBefore, g.c.counters())
	for i, n := range g.c.nodes {
		o.perNode = append(o.perNode, float64(n.Snapshot().Counters["transport.bytes_sent"])-sentBefore[i])
	}
	rc.checkNoEvictions(o.counters)
	g.close()
	g.mu.Lock()
	for _, n := range g.evicted {
		rc.failf("node %d was evicted", n)
	}
	g.mu.Unlock()
	return o
}

func runBulk(rc *runCtx) error {
	m := rc.out.Metrics
	if !rc.traced {
		g, setups, err := repeatSetup(rc.sz.setups,
			func() (*bulkGroup, error) { return startBulkGroup(rc, nil) },
			(*bulkGroup).close)
		if err != nil {
			return err
		}
		o := runBulkPhases(rc, g, nil, rc.dur, nil)
		deliveries := float64(len(o.deliverMs))
		m["setup_s"] = quantile(setups, 0.5)
		m["deliver_p50_ms"] = quantile(o.deliverMs, 0.5)
		m["deliver_p90_ms"] = quantile(o.deliverMs, 0.9)
		m["deliveries_per_s"] = ratio(deliveries, o.secs)
		m["allocs_per_delivery"] = ratio(o.use.mallocs, deliveries)
		m["goodput_MBps"] = ratio(o.bytes*float64(bulkNodes-1), o.wholeSecs) / 1e6
		m["datagrams_per_delivery"] = ratio(o.counters["transport.datagrams_sent"], deliveries)
		m["delivered_pct"] = 100 * ratio(deliveries, o.objects*float64(bulkNodes-1))
		return nil
	}

	// The reference for the tracing overhead: two objects, untraced.
	ref, err := startBulkGroup(rc, nil)
	if err != nil {
		return err
	}
	refOut := runBulkPhases(rc, ref, nil, 0, nil)
	refP50 := quantile(refOut.deliverMs, 0.5)

	rc.tr = newTracer(rc.base)
	g, err := startBulkGroup(rc, rc.tr)
	if err != nil {
		return err
	}
	probe := newLiveProbe(g.c, 1, nil)
	o := runBulkPhases(rc, g, rc.tr, rc.dur/2, probe)
	deliveries := float64(len(o.deliverMs))
	rc.spans = rc.tr.spans()
	m["member.join_ms_p50"] = quantile(g.c.joinMs, 0.5)
	m["api.deliver_samples"] = deliveries
	m["api.trace_overhead_pct"] = 100 * ratio(quantile(o.deliverMs, 0.5)-refP50, refP50)
	m["transport.flush_us_p50"] = quantile(g.c.flushTimes(), 0.5)
	probe.fill(m, o.counters, deliveries, o.use)
	m["bulk.publish_call_ms_p50"] = quantile(o.publishMs, 0.5)
	m["bulk.first_progress_ms_p50"] = quantile(o.firstProgMs, 0.5)
	m["bulk.tail_ms_p50"] = quantile(o.tailMs, 0.5)
	m["bulk.origin_bytes_per_object_byte"] = ratio(o.perNode[0], o.bytes)
	var total, max float64
	for _, b := range o.perNode {
		total += b
		if b > max {
			max = b
		}
	}
	m["bulk.max_member_bytes_share_pct"] = 100 * ratio(max, total)
	driveRS(m)
	return nil
}
