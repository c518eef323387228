package hier

// Overlay formation: the self-organizing side of the hierarchy
// (Config.AutoHier). Instead of a hand-written static Topology, every
// node measures its distance to peers (per-peer min-RTT, via
// Config.Distance — usually a clocksync matrix engine), reports its
// distance vector to a formation leader, and the leader clusters the
// live member set into latency-near clusters bounded by a fan-out limit,
// electing each cluster's coordinator (relay). Topologies are numbered
// by a monotonically increasing epoch and disseminated with periodic
// beacons, so reshapes are idempotent and loss-tolerant: a node that
// misses the announcement hears a newer epoch in the next beacon and
// resyncs.
//
// The leader is self-elected: the lowest-ID member believed alive, the
// same deterministic rule the membership layer uses for its coordinator.
// Followers treat beacon silence as leader death and advance their
// belief one ID at a time; announcements from a lower-ID leader always
// reclaim the role, and epoch numbers break symmetry when a healed
// partition leaves two leaders behind (higher epoch wins, then lower
// leader ID).
//
// Reshape decisions are hysteresis-damped: the leader recomputes the
// clustering continuously but announces a new epoch only when the
// member set changed (join, crash, restart — a forced reshape) or the
// candidate tree's cost undercuts the current tree by hysteresis
// (an improvement reshape). With fixed distances the recomputation is
// deterministic, so the overlay quiesces instead of oscillating.

import (
	"encoding/binary"
	"math"
	"sort"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// Formation defaults and constants.
const (
	DefaultFanOut        = 8
	DefaultReportEvery   = 150 * time.Millisecond
	DefaultAnnounceEvery = 200 * time.Millisecond
	// suspectReports is how many ReportEvery periods of report silence
	// the leader tolerates before dropping a member from the overlay.
	suspectReports = 3
	// leaderBeacons is how many AnnounceEvery periods of beacon silence
	// a follower tolerates before advancing its leader belief to the
	// next member ID.
	leaderBeacons = 3
	// hysteresis is the minimum relative tree-cost improvement that
	// justifies a reshape absent a membership change.
	hysteresis = 0.10
	// formDistance stands in for unmeasured own distances in reports.
	// Pairs the leader has no report for at all are treated as far —
	// beyond every measured distance — since reports carry each node's
	// nearest peers.
	formDistance = 5 * time.Millisecond
	// reportLimit caps a report's vector to the node's nearest measured
	// peers, bounding control traffic at scale.
	reportLimit = 64
	// replayLog bounds how many of a node's own recent messages are
	// re-multicast into a freshly installed topology, the recovery path
	// for traffic in flight across a reshape.
	replayLog = 64
)

// FormConfig tunes overlay formation. The zero value takes the defaults
// above; it only applies when Config.AutoHier is set.
type FormConfig struct {
	// ReportEvery is how often members send their distance vector to the
	// formation leader. Reports double as the liveness signal the leader
	// prunes dead members by.
	ReportEvery time.Duration
	// AnnounceEvery is the leader's beacon/announce cadence. A changed
	// topology is announced in full; otherwise a light epoch beacon goes
	// out, and lagging members pull the full topology with a resync.
	AnnounceEvery time.Duration
	// ProbeEvery is the probing period of the built-in clocksync matrix
	// prober (only used when Config.Distance is nil and ClockGroup set).
	ProbeEvery time.Duration
	// OnInstall, when non-nil, observes every topology installation on
	// this node (the chaos harness checks each against the
	// well-formedness invariant).
	OnInstall func(epoch uint64, leader id.Node, topo Topology)
}

func (fc *FormConfig) defaults() {
	if fc.ReportEvery <= 0 {
		fc.ReportEvery = DefaultReportEvery
	}
	if fc.AnnounceEvery <= 0 {
		fc.AnnounceEvery = DefaultAnnounceEvery
	}
}

// Control message ops carried in KindHierCtl bodies (epoch in Aux).
const (
	opReport byte = 1 // member → leader: distance vector
	opTopo   byte = 2 // leader → member: full topology (epoch in Aux)
	opBeacon byte = 3 // leader → member: liveness + current epoch
	opResync byte = 4 // member → leader: resend the current topology
)

// report is one member's latest distance vector at the leader.
type report struct {
	vec map[id.Node]time.Duration
	at  time.Time
}

// former is the per-node overlay-formation state machine.
type former struct {
	e   *Engine
	cfg FormConfig

	self     id.Node
	universe []id.Node // sorted known member set, self included

	// Follower state.
	leader          id.Node
	lastLeaderHeard time.Time
	lastReport      time.Time

	// Leader state.
	reports       map[id.Node]report
	cur           Topology
	curEpoch      uint64
	epochAnnounce uint64 // epoch last announced in full
	lastAnnounce  time.Time
	forceBump     bool // reclaim leadership with a fresh epoch

	// Highest epoch seen anywhere; new epochs always exceed it.
	maxEpoch uint64
}

func newFormer(e *Engine, cfg FormConfig, members []id.Node) *former {
	f := &former{
		e:       e,
		cfg:     cfg,
		self:    e.env.Self(),
		reports: make(map[id.Node]report),
	}
	f.maxEpoch = e.epoch // never announce below the bootstrap epoch
	f.setUniverse(members)
	return f
}

// setUniverse replaces the known member set (self always included) and
// revalidates the leader belief.
func (f *former) setUniverse(members []id.Node) {
	seen := map[id.Node]bool{f.self: true}
	f.universe = f.universe[:0]
	f.universe = append(f.universe, f.self)
	for _, m := range members {
		if m == id.None || seen[m] {
			continue
		}
		seen[m] = true
		f.universe = append(f.universe, m)
	}
	sort.Slice(f.universe, func(i, j int) bool { return f.universe[i] < f.universe[j] })
	for m := range f.reports {
		if !seen[m] {
			delete(f.reports, m)
		}
	}
	if !seen[f.leader] {
		f.leader = f.universe[0]
		f.lastLeaderHeard = f.e.env.Now()
		if f.leader == f.self {
			f.takeover()
		}
	}
	if f.leader == id.None {
		f.leader = f.universe[0]
	}
}

// takeover assumes formation leadership: start from the installed
// topology as the cost baseline but force a fresh epoch so the claim
// outranks anything the previous leader announced.
func (f *former) takeover() {
	f.cur = f.e.cfg.Topology
	f.curEpoch = 0 // forces a reshape (and an epoch bump) next announce
	f.lastAnnounce = time.Time{}
	f.e.rec(flightrec.EvLeaderTakeover, f.maxEpoch, 0)
	f.e.mTakeovers.Inc()
}

// ownVector collects this node's measured distances, nearest-first,
// capped at reportLimit.
func (f *former) ownVector() []distEntry {
	dist := f.e.cfg.Distance
	if dist == nil {
		return nil
	}
	out := make([]distEntry, 0, len(f.universe))
	for _, m := range f.universe {
		if m == f.self {
			continue
		}
		if d := dist(m); d > 0 {
			out = append(out, distEntry{node: m, d: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].node < out[j].node
	})
	if len(out) > reportLimit {
		out = out[:reportLimit]
	}
	return out
}

type distEntry struct {
	node id.Node
	d    time.Duration
}

// tick drives the formation cadence: follower reports and leader-silence
// detection, or leader announcements.
func (f *former) tick(now time.Time) {
	if f.leader != f.self {
		if now.Sub(f.lastLeaderHeard) > leaderBeacons*f.cfg.AnnounceEvery {
			f.advanceLeader(now)
		}
	}
	if f.leader == f.self {
		if f.lastAnnounce.IsZero() || now.Sub(f.lastAnnounce) >= f.cfg.AnnounceEvery {
			f.announce(now)
		}
		return
	}
	if f.lastReport.IsZero() || now.Sub(f.lastReport) >= f.cfg.ReportEvery {
		f.lastReport = now
		f.sendReport()
	}
}

// advanceLeader moves the leader belief to the next member ID after a
// beacon timeout. Dead low-ID members cascade out one timeout at a time
// until the belief reaches a live node — possibly this one.
func (f *former) advanceLeader(now time.Time) {
	idx := sort.Search(len(f.universe), func(i int) bool { return f.universe[i] >= f.leader })
	if idx < len(f.universe) && f.universe[idx] == f.leader {
		idx++
	}
	if idx >= len(f.universe) {
		idx = 0
	}
	f.leader = f.universe[idx]
	f.lastLeaderHeard = now
	if f.leader == f.self {
		f.takeover()
	}
}

// sendReport unicasts this node's distance vector to the believed
// leader.
func (f *former) sendReport() {
	vec := f.ownVector()
	body := make([]byte, 0, 5+12*len(vec))
	body = append(body, opReport)
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(vec)))
	body = append(body, n[:4]...)
	for _, de := range vec {
		binary.BigEndian.PutUint64(n[:], uint64(de.node))
		body = append(body, n[:]...)
		binary.BigEndian.PutUint32(n[:4], clampMicros(de.d))
		body = append(body, n[:4]...)
	}
	f.e.mReports.Inc()
	f.e.env.Send(f.leader, &wire.Message{
		Kind:  wire.KindHierCtl,
		Group: f.e.cfg.LocalGroup,
		Aux:   f.e.epoch,
		Body:  body,
	})
}

func clampMicros(d time.Duration) uint32 {
	us := d / time.Microsecond
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	if us < 0 {
		return 0
	}
	return uint32(us)
}

// alive returns the members with fresh reports (self always), sorted.
func (f *former) alive(now time.Time) []id.Node {
	out := make([]id.Node, 0, len(f.universe))
	for _, m := range f.universe {
		if m == f.self {
			out = append(out, m)
			continue
		}
		if r, ok := f.reports[m]; ok && now.Sub(r.at) <= suspectReports*f.cfg.ReportEvery {
			out = append(out, m)
		}
	}
	return out
}

// distFn builds the leader's pairwise distance estimate from the
// collected reports: the smaller of the two directions when measured,
// and "far" — beyond every measured distance — otherwise, since reports
// carry each node's nearest peers and absence means remoteness.
func (f *former) distFn() func(a, b id.Node) time.Duration {
	far := formDistance
	for _, r := range f.reports {
		for _, d := range r.vec {
			if d > far {
				far = d
			}
		}
	}
	far *= 2
	return func(a, b id.Node) time.Duration {
		if a == b {
			return 0
		}
		best := time.Duration(-1)
		if r, ok := f.reports[a]; ok {
			if d, ok := r.vec[b]; ok {
				best = d
			}
		}
		if r, ok := f.reports[b]; ok {
			if d, ok := r.vec[a]; ok && (best < 0 || d < best) {
				best = d
			}
		}
		if best < 0 {
			return far
		}
		return best
	}
}

// announce recomputes the clustering and disseminates: a full topology
// when the epoch advances (membership change, cost improvement, or a
// leadership reclaim), a light beacon otherwise.
func (f *former) announce(now time.Time) {
	f.lastAnnounce = now
	// The leader's own vector is always fresh.
	vec := make(map[id.Node]time.Duration, reportLimit)
	for _, de := range f.ownVector() {
		vec[de.node] = de.d
	}
	f.reports[f.self] = report{vec: vec, at: now}

	alive := f.alive(now)
	dist := f.distFn()
	cand, candCost := formClusters(alive, f.e.fanOut(), dist)

	reshape := f.forceBump || f.curEpoch == 0 || !sameNodeSet(f.cur, alive)
	if !reshape {
		curCost := topologyCost(f.cur, dist)
		if float64(candCost) < float64(curCost)*(1-hysteresis) {
			reshape = true
		}
	}
	if reshape {
		f.maxEpoch++
		f.curEpoch = f.maxEpoch
		f.cur = cand
		f.forceBump = false
		f.e.rec(flightrec.EvReshape, f.curEpoch, uint64(len(cand.Clusters)))
		f.e.mReshapes.Inc()
	}

	if f.epochAnnounce != f.curEpoch {
		f.epochAnnounce = f.curEpoch
		body := appendTopoBody(nil, f.cur)
		for _, m := range f.universe {
			if m == f.self {
				continue
			}
			f.e.env.Send(m, &wire.Message{
				Kind:  wire.KindHierCtl,
				Group: f.e.cfg.LocalGroup,
				Aux:   f.curEpoch,
				Body:  body,
			})
		}
	} else {
		for _, m := range f.universe {
			if m == f.self {
				continue
			}
			f.e.env.Send(m, &wire.Message{
				Kind:  wire.KindHierCtl,
				Group: f.e.cfg.LocalGroup,
				Aux:   f.curEpoch,
				Body:  []byte{opBeacon},
			})
		}
	}
	f.e.installTopology(f.curEpoch, f.self, f.cur)
}

// onCtl handles one formation control message.
func (f *former) onCtl(from id.Node, msg *wire.Message) {
	if len(msg.Body) == 0 {
		return
	}
	now := f.e.env.Now()
	if msg.Aux > f.maxEpoch {
		f.maxEpoch = msg.Aux
	}
	if f.leader == f.self && msg.Aux > f.curEpoch {
		// Someone holds a newer tree than ours (reports and resyncs carry
		// the sender's installed epoch): a healed partition left a higher
		// epoch behind. Reclaim with a fresh epoch above it.
		f.forceBump = true
	}
	switch msg.Body[0] {
	case opReport:
		vec, ok := decodeReport(msg.Body)
		if !ok {
			return
		}
		f.reports[from] = report{vec: vec, at: now}
	case opResync:
		if f.leader != f.self || f.curEpoch == 0 {
			return
		}
		f.e.env.Send(from, &wire.Message{
			Kind:  wire.KindHierCtl,
			Group: f.e.cfg.LocalGroup,
			Aux:   f.curEpoch,
			Body:  appendTopoBody(nil, f.cur),
		})
	case opBeacon:
		f.onLeaderSignal(from, msg.Aux, now)
		if msg.Aux > f.e.epoch && f.leader == from {
			// We lag the announced epoch: pull the full topology.
			f.e.env.Send(from, &wire.Message{
				Kind:  wire.KindHierCtl,
				Group: f.e.cfg.LocalGroup,
				Aux:   f.e.epoch,
				Body:  []byte{opResync},
			})
		}
	case opTopo:
		topo, ok := decodeTopoBody(msg.Body)
		if !ok {
			return
		}
		f.onLeaderSignal(from, msg.Aux, now)
		if msg.Aux > f.e.epoch ||
			(msg.Aux == f.e.epoch && from < f.e.installedLeader) {
			if f.leader == from {
				f.e.installTopology(msg.Aux, from, topo)
			}
		}
	}
}

// onLeaderSignal updates leadership belief from an announcement or
// beacon sent by `from` with the given epoch.
func (f *former) onLeaderSignal(from id.Node, epoch uint64, now time.Time) {
	if epoch > f.maxEpoch {
		f.maxEpoch = epoch
	}
	switch {
	case from == f.leader:
		f.lastLeaderHeard = now
	case from < f.leader:
		// A lower-ID leader always reclaims the role.
		f.leader = from
		f.lastLeaderHeard = now
	case f.leader == f.self:
		// A higher-ID usurper is announcing; reclaim with a fresh epoch.
		if epoch >= f.curEpoch {
			f.forceBump = true
		}
	default:
		// A higher-ID node than our current belief is leading: our
		// believed leader must be dead (it would be announcing). Adopt
		// whoever carries the newest epoch.
		if epoch >= f.e.epoch {
			f.leader = from
			f.lastLeaderHeard = now
		}
	}
}

// --- control body codecs ---

func decodeReport(body []byte) (map[id.Node]time.Duration, bool) {
	if len(body) < 5 || body[0] != opReport {
		return nil, false
	}
	count := int(binary.BigEndian.Uint32(body[1:]))
	if count < 0 || len(body) < 5+12*count {
		return nil, false
	}
	vec := make(map[id.Node]time.Duration, count)
	off := 5
	for i := 0; i < count; i++ {
		n := id.Node(binary.BigEndian.Uint64(body[off:]))
		us := binary.BigEndian.Uint32(body[off+8:])
		vec[n] = time.Duration(us) * time.Microsecond
		off += 12
	}
	return vec, true
}

// appendTopoBody encodes a topology:
// op (1) | clusterCount (4) | { relay (8) | size (4) | members (8·size) }*.
func appendTopoBody(dst []byte, t Topology) []byte {
	var n [8]byte
	dst = append(dst, opTopo)
	binary.BigEndian.PutUint32(n[:4], uint32(len(t.Clusters)))
	dst = append(dst, n[:4]...)
	for i, c := range t.Clusters {
		binary.BigEndian.PutUint64(n[:], uint64(t.RelayOf(i)))
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint32(n[:4], uint32(len(c)))
		dst = append(dst, n[:4]...)
		for _, m := range c {
			binary.BigEndian.PutUint64(n[:], uint64(m))
			dst = append(dst, n[:]...)
		}
	}
	return dst
}

func decodeTopoBody(body []byte) (Topology, bool) {
	var t Topology
	if len(body) < 5 || body[0] != opTopo {
		return t, false
	}
	count := int(binary.BigEndian.Uint32(body[1:]))
	if count < 0 || count > len(body) {
		return t, false
	}
	off := 5
	for i := 0; i < count; i++ {
		if len(body) < off+12 {
			return Topology{}, false
		}
		relay := id.Node(binary.BigEndian.Uint64(body[off:]))
		size := int(binary.BigEndian.Uint32(body[off+8:]))
		off += 12
		if size < 0 || len(body) < off+8*size {
			return Topology{}, false
		}
		cluster := make([]id.Node, size)
		for j := 0; j < size; j++ {
			cluster[j] = id.Node(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
		t.Clusters = append(t.Clusters, cluster)
		t.Coordinators = append(t.Coordinators, relay)
	}
	return t, true
}

// --- clustering ---

// sameNodeSet reports whether the topology covers exactly the given
// sorted member list.
func sameNodeSet(t Topology, members []id.Node) bool {
	if t.Size() != len(members) {
		return false
	}
	in := make(map[id.Node]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	for _, c := range t.Clusters {
		for _, m := range c {
			if !in[m] {
				return false
			}
		}
	}
	return true
}

// topologyCost is the tree cost the reshape hysteresis compares: every
// member's distance to its cluster coordinator, plus every coordinator's
// distance to the hub (the lowest-ID coordinator), approximating the
// two-level dissemination path length.
func topologyCost(t Topology, dist func(a, b id.Node) time.Duration) time.Duration {
	var cost time.Duration
	relays := t.Relays()
	var hub id.Node
	for _, r := range relays {
		if hub == id.None || r < hub {
			hub = r
		}
	}
	for i, c := range t.Clusters {
		r := t.RelayOf(i)
		for _, m := range c {
			cost += dist(m, r)
		}
		cost += dist(r, hub)
	}
	return cost
}

// formClusters computes a latency-near clustering of the members bounded
// by fanOut, deterministically: seeds are chosen by farthest-point
// traversal from the lowest ID (spreading them across latency sites),
// members greedily join their nearest seed with capacity fanOut, and
// each cluster's coordinator is its medoid — the member minimizing the
// summed distance to its cluster mates. Cluster count adapts to the
// member count (≈ two clusters per fan-out's worth of members, but never
// fewer than two members per cluster where the fan-out allows two: a
// one-member cluster has no locality to exploit), so growth splits
// clusters and shrinkage merges them.
func formClusters(members []id.Node, fanOut int, dist func(a, b id.Node) time.Duration) (Topology, time.Duration) {
	n := len(members)
	if n == 0 {
		return Topology{}, 0
	}
	target := max(min(fanOut, 2), (fanOut+1)/2, 1)
	k := (n + target - 1) / target
	if k > n {
		k = n
	}

	// Farthest-point seeding.
	seeds := make([]id.Node, 0, k)
	seeds = append(seeds, members[0])
	minDist := make(map[id.Node]time.Duration, n)
	for _, m := range members {
		minDist[m] = dist(m, seeds[0])
	}
	for len(seeds) < k {
		var next id.Node
		best := time.Duration(-1)
		for _, m := range members {
			d := minDist[m]
			if d > best || (d == best && (next == id.None || m < next)) {
				best, next = d, m
			}
		}
		seeds = append(seeds, next)
		for _, m := range members {
			if d := dist(m, next); d < minDist[m] {
				minDist[m] = d
			}
		}
	}

	// Globally greedy nearest-seed assignment under the fan-out cap:
	// process (member, seed) pairs closest-first, deterministic ties.
	type pair struct {
		d    time.Duration
		m    id.Node
		seed int
	}
	pairs := make([]pair, 0, n*k)
	for _, m := range members {
		for si, s := range seeds {
			pairs = append(pairs, pair{d: dist(m, s), m: m, seed: si})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		if pairs[i].m != pairs[j].m {
			return pairs[i].m < pairs[j].m
		}
		return pairs[i].seed < pairs[j].seed
	})
	clusters := make([][]id.Node, k)
	assigned := make(map[id.Node]bool, n)
	for _, p := range pairs {
		if assigned[p.m] || len(clusters[p.seed]) >= fanOut {
			continue
		}
		assigned[p.m] = true
		clusters[p.seed] = append(clusters[p.seed], p.m)
	}

	// Coordinator = medoid per cluster; drop empty clusters; order
	// clusters by coordinator ID for a canonical encoding.
	var t Topology
	for _, c := range clusters {
		if len(c) == 0 {
			continue
		}
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		relay := c[0]
		var relayCost time.Duration = -1
		for _, cand := range c {
			var sum time.Duration
			for _, m := range c {
				sum += dist(cand, m)
			}
			if relayCost < 0 || sum < relayCost {
				relayCost, relay = sum, cand
			}
		}
		t.Clusters = append(t.Clusters, c)
		t.Coordinators = append(t.Coordinators, relay)
	}
	order := make([]int, len(t.Clusters))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return t.Coordinators[order[i]] < t.Coordinators[order[j]] })
	out := Topology{
		Clusters:     make([][]id.Node, len(order)),
		Coordinators: make([]id.Node, len(order)),
	}
	for i, oi := range order {
		out.Clusters[i] = t.Clusters[oi]
		out.Coordinators[i] = t.Coordinators[oi]
	}
	return out, topologyCost(out, dist)
}
