package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
	"scalamedia/internal/workload"
)

// The two simulated workloads. Their latencies are virtual time and their
// datagram counts repeat exactly for one seed; only the wall time of a
// simulation depends on the host. A run simulates a fixed number of
// scenarios derived from its seed (one fault lands differently against the
// failure detector's timers from seed to seed, so a single scenario would
// make the figures jump between seeds) and reports the median scenario;
// it then keeps cycling through the same scenarios until its measured
// seconds are used, for more samples of wall time.

const (
	hierPayload   = 64
	hierLoss      = 0.01
	hierDomains   = 8
	hierWideGroup = id.Group(2)
)

// countingEnv counts what an engine sends, by group and kind, on its way
// to the simulator: the traced run's view into the hierarchy's traffic.
type countingEnv struct {
	proto.Env
	wide, total *uint64
	byKind      map[wire.Kind]uint64
}

func (e countingEnv) Send(to id.Node, msg *wire.Message) {
	*e.total++
	if msg.Group == hierWideGroup {
		*e.wide++
	}
	e.byKind[msg.Kind]++
	e.Env.Send(to, msg)
}

// hierSim is one built instance of the hierarchical simulation and, once
// run, what it measured.
type hierSim struct {
	sim     *netsim.Sim
	engines map[id.Node]*hier.Engine
	members []id.Node
	sentAt  map[hierKey]time.Duration
	// next[n][o] is the last sequence number of origin o delivered at n.
	next map[id.Node]map[id.Node]uint64

	setup      time.Duration // netsim.New -> every engine built
	sending    time.Duration // virtual time of the last send
	use        procUse       // over Sim.Run
	events     int
	lat        []float64 // virtual ms, send -> OnDeliver at every other node; sorted once run
	deliveries int
	sent       int
	net        netsim.Stats
	violations []string

	// traced only
	wide, total uint64
	byKind      map[wire.Kind]uint64
	regs        []*stats.Registry // one per engine: hier numbers messages off its own counters
	recovery    rmcast.Counters
}

// hierKey names one multicast: the origin and its sequence number.
type hierKey struct {
	origin id.Node
	seq    uint64
}

func (h *hierSim) violate(msg string) {
	if len(h.violations) < 8 {
		h.violations = append(h.violations, msg)
	}
}

// buildHier builds the simulation: hierNodes hier.Engines in static
// clusters on a lossy LAN with correlated loss domains. That is the
// workload's set-up: a static topology holds its full view from the start.
func buildHier(rc *runCtx, seed int64, counting bool) *hierSim {
	sz := rc.sz
	t0 := time.Now()
	h := &hierSim{
		sim: netsim.New(netsim.Config{
			Seed:    seed,
			Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, hierLoss),
		}),
		engines: make(map[id.Node]*hier.Engine, sz.hierNodes),
		sentAt:  make(map[hierKey]time.Duration),
		next:    make(map[id.Node]map[id.Node]uint64, sz.hierNodes),
	}
	h.sim.SetLossDomains(func(n id.Node) int { return int(n) % hierDomains })
	for i := 1; i <= sz.hierNodes; i++ {
		h.members = append(h.members, id.Node(i))
	}
	topo := hier.Cluster(h.members, sz.hierCluster)
	if counting {
		h.byKind = make(map[wire.Kind]uint64)
	}
	for _, m := range h.members {
		seen := make(map[id.Node]uint64)
		h.next[m] = seen
		h.sim.AddNode(m, func(env proto.Env) proto.Handler {
			var reg *stats.Registry
			if counting {
				env = countingEnv{Env: env, wide: &h.wide, total: &h.total, byKind: h.byKind}
				reg = stats.NewRegistry()
				h.regs = append(h.regs, reg)
			}
			eng, err := hier.New(env, hier.Config{
				LocalGroup: 1, WideGroup: hierWideGroup, Topology: topo, Metrics: reg,
				OnDeliver: func(d hier.Delivery) {
					h.deliveries++
					// Exactly once and in each origin's order.
					if d.Seq != seen[d.Origin]+1 {
						h.violate("node " + m.String() + ": origin " + d.Origin.String() + " out of sequence")
					}
					if d.Seq > seen[d.Origin] {
						seen[d.Origin] = d.Seq
					}
					if d.Origin != m {
						h.lat = append(h.lat, float64(h.sim.Elapsed()-h.sentAt[hierKey{d.Origin, d.Seq}])/1e6)
					}
				},
			})
			if err != nil {
				panic(err) // the static topology contains every member
			}
			h.engines[m] = eng
			return eng
		})
	}
	h.setup = time.Since(t0)
	return h
}

// run schedules hierSenders senders spread across clusters, each with
// Poisson arrivals for hierVirtual, runs the simulation to quiescence and
// checks that every node delivered everything.
func (h *hierSim) run(rc *runCtx, seed int64, counting bool) {
	sz := rc.sz
	payload := workload.New(seed + 7).Payload(hierPayload)
	gap := time.Duration(float64(time.Second) / sz.hierRate)
	perSender := int(sz.hierVirtual / gap)
	sent := make(map[id.Node]uint64)
	var lastSend time.Duration
	for s := 0; s < sz.hierSenders; s++ {
		sender := h.members[(s*sz.hierCluster+1)%sz.hierNodes]
		for _, at := range workload.Arrivals(seed+int64(s)*31, gap, 10*time.Millisecond, perSender) {
			if at > lastSend {
				lastSend = at
			}
			h.sim.At(at, func() {
				sent[sender]++
				h.sentAt[hierKey{sender, sent[sender]}] = h.sim.Elapsed()
				_ = h.engines[sender].Multicast(payload) // a static hierarchy never refuses
			})
		}
	}
	h.sent = sz.hierSenders * perSender
	h.sending = lastSend

	before := sampleProc()
	h.events = h.sim.Run(lastSend + 5*time.Second)
	h.use.add(before, sampleProc())
	if counting {
		for _, eng := range h.engines {
			c := eng.Counters()
			h.recovery.NacksSent += c.NacksSent
			h.recovery.Retransmits += c.Retransmits
			h.recovery.NacksSuppressed += c.NacksSuppressed
			h.recovery.LocalRepairs += c.LocalRepairs
		}
	}
	h.net = h.sim.Stats()
	for _, m := range h.members {
		for o, n := range sent {
			if h.next[m][o] != n {
				h.violate("node " + m.String() + " missed messages of origin " + o.String())
			}
		}
	}
}

// simPoint is what one scenario of a simulated workload yields in virtual
// time and counts: it repeats exactly for one seed.
type simPoint struct {
	p50, p90    float64 // virtual ms
	deliveries  float64
	sendingSecs float64 // virtual seconds the senders were active
	payload     float64 // bytes per delivery
	datagrams   float64
	got, owed   float64 // deliveries made and owed, for delivered_pct
}

// scenarioSeed derives scenario i's seed from the run's.
func scenarioSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// cycleScenarios runs once(i, pass) for scenarios 0..k-1 (pass 0), then
// keeps cycling through them until the next one, going by the last, would
// end after d.
func cycleScenarios(d time.Duration, k int, once func(i, pass int)) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < k || time.Since(start)+last <= d; n++ {
		t0 := time.Now()
		once(n%k, n/k)
		last = time.Since(t0)
	}
}

// fillSimEndToEnd reports the median scenario's virtual figures, and the
// median over every repetition of allocations per delivery.
func fillSimEndToEnd(m map[string]float64, pts []simPoint, allocs, setups []float64) {
	med := func(f func(simPoint) float64) float64 {
		vs := make([]float64, len(pts))
		for i, p := range pts {
			vs[i] = f(p)
		}
		return quantile(vs, 0.5)
	}
	m["setup_s"] = quantile(setups, 0.5)
	m["deliver_p50_ms"] = med(func(p simPoint) float64 { return p.p50 })
	m["deliver_p90_ms"] = med(func(p simPoint) float64 { return p.p90 })
	m["deliveries_per_s"] = med(func(p simPoint) float64 { return ratio(p.deliveries, p.sendingSecs) })
	m["allocs_per_delivery"] = quantile(allocs, 0.5)
	m["goodput_MBps"] = med(func(p simPoint) float64 { return ratio(p.deliveries*p.payload, p.sendingSecs) / 1e6 })
	m["datagrams_per_delivery"] = med(func(p simPoint) float64 { return ratio(p.datagrams, p.deliveries) })
	m["delivered_pct"] = med(func(p simPoint) float64 { return 100 * ratio(p.got, p.owed) })
}

func runSimHier(rc *runCtx) error {
	m := rc.out.Metrics
	d := rc.dur
	if rc.traced {
		d /= 2
		rc.tr = newTracer(rc.base)
	}
	k := rc.sz.hierScenarios
	pts := make([]simPoint, k)
	var detail *hierSim // scenario 0, which the traced run instruments
	var cpuUs, allocs, setups []float64
	cycleScenarios(d, k, func(i, pass int) {
		seed := scenarioSeed(rc.seed, i)
		counting := rc.traced && i == 0 && pass == 0
		t0 := int64(time.Since(rc.base))
		h := buildHier(rc, seed, counting)
		h.run(rc, seed, counting)
		if rc.traced {
			rc.tr.addSpan(span{Name: "netsim.run", Start: t0 + int64(h.setup), End: int64(time.Since(rc.base)), Parent: -1, Msg: uint64(i)})
		}
		setups = append(setups, h.setup.Seconds())
		cpuUs = append(cpuUs, ratio(float64(h.use.wall)/1e3, float64(h.deliveries)))
		allocs = append(allocs, ratio(h.use.mallocs, float64(h.deliveries)))
		owed := h.sent * rc.sz.hierNodes
		sort.Float64s(h.lat)
		pt := simPoint{
			p50: sortedQuantile(h.lat, 0.5), p90: sortedQuantile(h.lat, 0.9),
			deliveries: float64(h.deliveries), sendingSecs: h.sending.Seconds(), payload: hierPayload,
			datagrams: float64(h.net.TotalSent()), got: float64(h.deliveries), owed: float64(owed),
		}
		if pass > 0 {
			if pt != pts[i] {
				rc.failf("scenario %d: same seed, different run: %+v then %+v", i, pts[i], pt)
			}
			return
		}
		pts[i] = pt
		if i == 0 {
			detail = h
		}
		for _, v := range h.violations {
			rc.failf("scenario %d: %s", i, v)
		}
		if h.deliveries != owed {
			rc.failN(owed-h.deliveries, "scenario %d: %d of %d deliveries", i, h.deliveries, owed)
		}
		rc.out.Attempted += owed
	})
	if !rc.traced {
		fillSimEndToEnd(m, pts, allocs, setups)
		return nil
	}
	rc.spans = rc.tr.spans()
	deliveries := float64(detail.deliveries)
	m["api.deliver_p99_ms"] = sortedQuantile(detail.lat, 0.99)
	m["api.deliver_p999_ms"] = sortedQuantile(detail.lat, 0.999)
	m["api.deliver_samples"] = float64(len(detail.lat))
	m["netsim.events_per_delivery"] = ratio(float64(detail.events), deliveries)
	m["netsim.wall_ns_per_event"] = ratio(quantile(cpuUs, 0.5)*1e3*deliveries, float64(detail.events))
	ctr := make(map[string]uint64)
	for _, reg := range detail.regs {
		for k, v := range reg.Snapshot().Counters {
			ctr[k] += v
		}
	}
	m["hier.relay_forwards_per_delivery"] = ratio(float64(ctr["hier.relay_forwards"]), deliveries)
	m["hier.batch_flushes_per_kdelivery"] = 1000 * ratio(float64(ctr["hier.batch_flushes"]), deliveries)
	payloadKinds := detail.byKind[wire.KindData] + detail.byKind[wire.KindRetrans] + detail.byKind[wire.KindRelay]
	m["hier.ctl_datagrams_per_delivery"] = ratio(float64(detail.total-payloadKinds), deliveries)
	m["hier.wide_datagram_share_pct"] = 100 * ratio(float64(detail.wide), float64(detail.total))
	m["transport.datagrams_per_delivery"] = ratio(float64(detail.net.TotalSent()), deliveries)
	m["transport.bytes_per_delivery"] = ratio(float64(detail.net.TotalBytes()), deliveries)
	fillRecovery(m, detail.recovery, deliveries)
	fillSimRuntime(m, detail.use, cpuUs, deliveries)
	return nil
}

// fillSimRuntime reports what one simulation consumed. A simulation is
// single-threaded, so its wall time is its CPU time; cpuUs holds that per
// delivery for every repetition of the run.
func fillSimRuntime(m map[string]float64, use procUse, cpuUs []float64, deliveries float64) {
	fillRuntime(m, use, deliveries)
	m["runtime.cpu_us_per_delivery"] = quantile(cpuUs, 0.5)
	m["runtime.goroutines_peak"] = float64(runtime.NumGoroutine())
}

// fillRecovery reports the engines' loss-recovery counters per thousand
// deliveries. These are what the chaos no-repair-storm invariant bounds;
// its ceiling is calibrated for 60-message runs, so here they are numbers
// to read, not a pass/fail.
func fillRecovery(m map[string]float64, c rmcast.Counters, deliveries float64) {
	perK := func(n uint64) float64 { return 1000 * ratio(float64(n), deliveries) }
	m["rmcast.nacks_sent_per_kdelivery"] = perK(c.NacksSent)
	m["rmcast.retransmits_per_kdelivery"] = perK(c.Retransmits)
	m["rmcast.nacks_suppressed_per_kdelivery"] = perK(c.NacksSuppressed)
	m["rmcast.local_repairs_per_kdelivery"] = perK(c.LocalRepairs)
	m["rmcast.order_ranges_per_kdelivery"] = perK(c.OrderRanges)
}

// chaosJoinWindow is internal/chaos's unexported joinWindow: its workload
// and fault times are offsets from it. crashSendTimes depends on it and on
// the order chaos.Run draws its workload in; crashStats checks every
// reconstructed time against the trace, so a change there fails the run
// instead of skewing it.
const chaosJoinWindow = 1500 * time.Millisecond

// crashSendTimes reconstructs when chaos.Run sent each workload message:
// it draws (sender, time) pairs from seed+1, and a sender numbers its
// accepted messages in time order. The crashed node sends nothing after
// the crash. The key is the 16-byte payload chaos gives the message.
func crashSendTimes(rc *runCtx, seed int64) map[string]time.Duration {
	sz := rc.sz
	wl := rand.New(rand.NewSource(seed + 1))
	bySender := make(map[id.Node][]time.Duration)
	for i := 0; i < sz.crashMsgs; i++ {
		sender := id.Node(1 + wl.Intn(sz.crashNodes))
		at := chaosJoinWindow + time.Duration(wl.Int63n(int64(sz.crashWindow)))
		bySender[sender] = append(bySender[sender], at)
	}
	out := make(map[string]time.Duration, sz.crashMsgs)
	for sender, ats := range bySender {
		sort.SliceStable(ats, func(i, j int) bool { return ats[i] < ats[j] })
		for k, at := range ats {
			if sender == 1 && at >= chaosJoinWindow+sz.crashAt {
				break
			}
			key := make([]byte, 16)
			binary.BigEndian.PutUint64(key, uint64(sender))
			binary.BigEndian.PutUint64(key[8:], uint64(k+1))
			out[string(key)] = at
		}
	}
	return out
}

// crashStats is what one chaos trace yields.
type crashStats struct {
	deliveries  int
	faultLat    []float64 // virtual ms: messages due in the second after the crash
	allLat      []float64
	survivorGot int // deliveries at survivors of survivors' messages
	survivorExp int
	gapMs       float64
	viewMs      float64
	recovery    rmcast.Counters
}

func crashAnalyze(rc *runCtx, tr *chaos.Trace) crashStats {
	var s crashStats
	sendAt := crashSendTimes(rc, tr.Opts.Seed)
	if len(sendAt) != len(tr.Sent) {
		rc.failf("reconstructed %d send times, the trace has %d messages", len(sendAt), len(tr.Sent))
	}
	crash := chaosJoinWindow + rc.sz.crashAt
	mismatched := 0
	for key, rec := range tr.Sent {
		at, ok := sendAt[key]
		dl := tr.Nodes[rec.Sender].Deliveries
		// The sender had seen PrefixLen deliveries when it sent: the send
		// falls between its neighbours in the sender's own log.
		if !ok || (rec.PrefixLen > 0 && dl[rec.PrefixLen-1].At > at) || (rec.PrefixLen < len(dl) && dl[rec.PrefixLen].At < at) {
			mismatched++
			continue
		}
		if rec.Sender != 1 {
			s.survivorExp += rc.sz.crashNodes - 1
		}
	}
	if mismatched > 0 {
		rc.failN(mismatched, "%d reconstructed send times contradict the trace", mismatched)
	}
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		s.deliveries += len(nt.Deliveries)
		c := nt.Recovery
		s.recovery.NacksSent += c.NacksSent
		s.recovery.Retransmits += c.Retransmits
		s.recovery.NacksSuppressed += c.NacksSuppressed
		s.recovery.LocalRepairs += c.LocalRepairs
		s.recovery.OrderRanges += c.OrderRanges
		if n == 1 {
			continue
		}
		// The service gap: the longest time this survivor went without a
		// delivery around the crash, while senders kept to their schedule.
		prev := time.Duration(-1)
		for _, d := range nt.Deliveries {
			if d.Sender != 1 {
				s.survivorGot++
			}
			if at, ok := sendAt[string(d.Payload)]; ok && d.Sender != n {
				ms := float64(d.At-at) / 1e6
				s.allLat = append(s.allLat, ms)
				if at >= crash && at < crash+time.Second {
					s.faultLat = append(s.faultLat, ms)
				}
			}
			if d.At >= crash-500*time.Millisecond && d.At <= crash+3*time.Second {
				if prev >= 0 {
					if g := float64(d.At-prev) / 1e6; g > s.gapMs {
						s.gapMs = g
					}
				}
				prev = d.At
			}
		}
		// View install: the first view without the crashed node.
		for _, v := range nt.Views {
			if v.At >= crash && !v.View.Contains(1) {
				if ms := float64(v.At-crash) / 1e6; ms > s.viewMs {
					s.viewMs = ms
				}
				break
			}
		}
	}
	return s
}

func runSimCrash(rc *runCtx) error {
	m := rc.out.Metrics
	sz := rc.sz
	d := rc.dur
	if rc.traced {
		d /= 2
		rc.tr = newTracer(rc.base)
	}
	// Set-up: how long the simulator takes to form the group and let it
	// settle with no workload and no fault (chaos.Run cannot be stopped
	// after the join, so these are runs of their own, each forming the
	// group under another seed: how many join messages the lossy links
	// drop moves this by half). They come first, before the scenarios
	// have grown the heap.
	var setups []float64
	for i := 0; i < sz.setups && !rc.traced; i++ {
		t0 := time.Now()
		chaos.Run(chaos.Options{Seed: scenarioSeed(rc.seed, i), Nodes: sz.crashNodes, Ordering: rmcast.Total, Msgs: 1, Window: time.Millisecond, Schedule: chaos.Schedule{}})
		setups = append(setups, time.Since(t0).Seconds())
	}
	k := sz.crashScenarios
	pts := make([]simPoint, k)
	var detail crashStats // scenario 0
	var detailNet netsim.Stats
	var detailUse procUse
	var cpuUs, allocs []float64
	cycleScenarios(d, k, func(i, pass int) {
		opts := chaos.Options{
			Seed: scenarioSeed(rc.seed, i), Nodes: sz.crashNodes, Ordering: rmcast.Total,
			Msgs: sz.crashMsgs, Window: sz.crashWindow,
			Schedule: chaos.Schedule{{At: sz.crashAt, Kind: chaos.Crash, Node: 1}},
		}
		before := sampleProc()
		tr := chaos.Run(opts)
		var use procUse
		use.add(before, sampleProc())
		if rc.traced {
			rc.tr.addSpan(span{Name: "chaos.run", Start: int64(before.at.Sub(rc.base)), End: int64(time.Since(rc.base)), Parent: -1, Msg: uint64(i)})
		}
		if pass > 0 {
			// Later passes only time the same simulation again.
			if float64(tr.Net.TotalSent()) != pts[i].datagrams {
				rc.failf("scenario %d: same seed, different run: %v datagrams then %d", i, pts[i].datagrams, tr.Net.TotalSent())
			}
			cpuUs = append(cpuUs, ratio(float64(use.wall)/1e3, pts[i].deliveries))
			allocs = append(allocs, ratio(use.mallocs, pts[i].deliveries))
			return
		}
		for _, v := range tr.Violations() {
			// The no-repair-storm ceiling is calibrated for 60-message
			// runs; its counters are reported as rmcast.*_per_kdelivery.
			if !strings.HasPrefix(v, "no-repair-storm") {
				rc.failf("scenario %d: chaos invariant: %s", i, v)
			}
		}
		s := crashAnalyze(rc, tr)
		if s.survivorGot != s.survivorExp {
			rc.failN(s.survivorExp-s.survivorGot, "scenario %d: survivors delivered %d of %d", i, s.survivorGot, s.survivorExp)
		}
		rc.out.Attempted += s.survivorExp
		pts[i] = simPoint{
			p50: quantile(s.faultLat, 0.5), p90: quantile(s.faultLat, 0.9),
			deliveries: float64(s.deliveries), sendingSecs: sz.crashWindow.Seconds(), payload: 16,
			datagrams: float64(tr.Net.TotalSent()), got: float64(s.survivorGot), owed: float64(s.survivorExp),
		}
		cpuUs = append(cpuUs, ratio(float64(use.wall)/1e3, pts[i].deliveries))
		allocs = append(allocs, ratio(use.mallocs, pts[i].deliveries))
		if i == 0 {
			detail, detailNet, detailUse = s, tr.Net, use
		}
	})
	if !rc.traced {
		fillSimEndToEnd(m, pts, allocs, setups)
		return nil
	}
	rc.spans = rc.tr.spans()
	deliveries := float64(detail.deliveries)
	m["api.deliver_p99_ms"] = quantile(detail.allLat, 0.99)
	m["api.deliver_p999_ms"] = quantile(detail.allLat, 0.999)
	m["api.deliver_samples"] = float64(len(detail.allLat))
	m["member.sim_service_gap_ms"] = detail.gapMs
	m["member.sim_view_install_ms"] = detail.viewMs
	m["transport.datagrams_per_delivery"] = ratio(float64(detailNet.TotalSent()), deliveries)
	m["transport.bytes_per_delivery"] = ratio(float64(detailNet.TotalBytes()), deliveries)
	fillRecovery(m, detail.recovery, deliveries)
	fillSimRuntime(m, detailUse, cpuUs, deliveries)
	return nil
}
