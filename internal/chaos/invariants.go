package chaos

import (
	"fmt"
	"sort"
	"strings"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/rmcast"
)

// Violations runs every invariant applicable to the run's ordering over
// the trace and returns human-readable violation reports, empty when the
// run was safe. The catalogue:
//
//   - no-creation: every delivered payload was sent, by its claimed sender
//   - no-duplication: no node delivers the same payload twice
//   - fifo: per (view, sender) delivery follows sequence order across
//     all stream labels, and each node's delivery views are monotone
//   - causal (Causal runs): a message follows its delivered obligations
//   - total (Total runs): nodes sharing a view transition have delivery
//     sequences in the old view that are prefixes of one another
//   - vs-agreement (all but Unordered): nodes making the same view
//     transition delivered the same payload set in the old view, and
//     live members of the final view delivered the same set there
//   - view-integrity: equal view IDs imply equal memberships
//   - view-convergence: when the live nodes can form a primary component,
//     every live node ends in one common view whose membership is exactly
//     the live node set
//   - validity: payloads from never-crashed, never-evicted final members
//     reach every live final member
//   - gc-drain: live final members hold no unstable history after settle
//   - no-repair-storm: recovery request and repair event counts stay
//     bounded — backoff, suppression and damping must prevent the NACK
//     implosion / repair-storm failure modes whatever the schedule did
//   - progress: the group formed and the workload delivered something
//   - bounded-sender-memory (FlowWindow runs): no sender's own unstable
//     backlog ever exceeded the flow window, however long a receiver
//     stalled
//   - no-false-slow-eviction (stall-only schedules): a member that is
//     merely slow is evicted only by the EvictSlow policy and only after
//     its grace budget — never by the failure detector, and never when
//     it was not the one stalled
//   - throughput-floor (EvictSlow stall runs): one laggard must not
//     wedge the group; after the eviction the window reopens and the
//     majority of the offered workload still gets through
func (tr *Trace) Violations() []string {
	out := append(tr.checkProgress(), tr.Safety()...)
	if tr.Opts.Ordering != rmcast.Unordered {
		out = append(out, tr.checkVSAgreement()...)
	}
	out = append(out, tr.checkViewIntegrity()...)
	out = append(out, tr.checkViewConvergence()...)
	out = append(out, tr.checkValidity()...)
	out = append(out, tr.checkGCDrain()...)
	out = append(out, tr.checkNoRepairStorm()...)
	out = append(out, tr.checkBoundedSenderMemory()...)
	out = append(out, tr.checkNoFalseSlowEviction()...)
	out = append(out, tr.checkThroughputFloor()...)
	return out
}

// Safety runs the catalogue's delivery-safety checks, the ones every run
// must pass whatever its faults, load or measurements: no-creation,
// no-duplication, fifo, and causal or total for those orderings.
func (tr *Trace) Safety() []string {
	out := append(tr.checkNoCreation(), tr.checkNoDuplication()...)
	out = append(out, tr.checkFIFO()...)
	switch tr.Opts.Ordering {
	case rmcast.Causal:
		out = append(out, tr.checkCausal()...)
	case rmcast.Total:
		out = append(out, tr.checkTotalPrefix()...)
	}
	return out
}

// live returns the nodes that finished the run up and un-evicted, the set
// the liveness invariants quantify over.
func (tr *Trace) live() []id.Node {
	var out []id.Node
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		if nt.Up && !nt.Evicted {
			out = append(out, n)
		}
	}
	return out
}

func (tr *Trace) checkProgress() []string {
	var out []string
	delivered := 0
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		delivered += len(nt.Deliveries)
		if len(nt.Views) == 0 {
			out = append(out, fmt.Sprintf("progress: n%d never installed a view", n))
		}
	}
	if len(tr.Sent) == 0 {
		out = append(out, "progress: workload sent nothing")
	} else if delivered == 0 {
		out = append(out, "progress: nothing was delivered")
	}
	return out
}

func (tr *Trace) checkNoCreation() []string {
	var out []string
	for _, n := range tr.Order {
		for _, d := range tr.Nodes[n].Deliveries {
			rec, ok := tr.Sent[string(d.Payload)]
			if !ok {
				out = append(out, fmt.Sprintf(
					"no-creation: n%d delivered %s which was never sent",
					n, payloadName(string(d.Payload))))
				continue
			}
			if rec.Sender != d.Sender {
				out = append(out, fmt.Sprintf(
					"no-creation: n%d delivered %s attributed to n%d, sent by n%d",
					n, payloadName(string(d.Payload)), d.Sender, rec.Sender))
			}
		}
	}
	return out
}

func (tr *Trace) checkNoDuplication() []string {
	var out []string
	for _, n := range tr.Order {
		seen := make(map[string]bool)
		for _, d := range tr.Nodes[n].Deliveries {
			k := string(d.Payload)
			if seen[k] {
				out = append(out, fmt.Sprintf(
					"no-duplication: n%d delivered %s twice", n, payloadName(k)))
			}
			seen[k] = true
		}
	}
	return out
}

func (tr *Trace) checkFIFO() []string {
	var out []string
	for _, n := range tr.Order {
		lastView := id.View(0)
		type stream struct {
			view   id.View
			sender id.Node
		}
		lastSeq := make(map[stream]uint64)
		for _, d := range tr.Nodes[n].Deliveries {
			if d.View < lastView {
				out = append(out, fmt.Sprintf(
					"fifo: n%d delivered view %d traffic after view %d traffic",
					n, d.View, lastView))
			}
			lastView = d.View
			if tr.Opts.Ordering == rmcast.Unordered {
				continue // delivery on arrival: sequence order not promised
			}
			s := stream{view: d.View, sender: d.Sender}
			if d.Seq <= lastSeq[s] {
				out = append(out, fmt.Sprintf(
					"fifo: n%d delivered n%d's seq %d after seq %d in view %d",
					n, d.Sender, d.Seq, lastSeq[s], d.View))
			}
			lastSeq[s] = d.Seq
		}
	}
	return out
}

// checkCausal verifies the delivered-obligation form of causal safety: if
// a node delivered both a message and one of its causal obligations (a
// payload the sender had delivered before sending), the obligation came
// first. Obligations the node never delivered are the agreement checks'
// business, not an ordering violation.
func (tr *Trace) checkCausal() []string {
	var out []string
	for _, n := range tr.Order {
		pos := make(map[string]int)
		for i, d := range tr.Nodes[n].Deliveries {
			pos[string(d.Payload)] = i
		}
		for _, d := range tr.Nodes[n].Deliveries {
			key := string(d.Payload)
			rec, ok := tr.Sent[key]
			if !ok {
				continue // reported by no-creation
			}
			obligations := tr.Nodes[rec.Sender].Deliveries
			if rec.PrefixLen < len(obligations) {
				obligations = obligations[:rec.PrefixLen]
			}
			for _, ob := range obligations {
				op, delivered := pos[string(ob.Payload)]
				if delivered && op > pos[key] {
					out = append(out, fmt.Sprintf(
						"causal: n%d delivered %s before its obligation %s",
						n, payloadName(key), payloadName(string(ob.Payload))))
				}
			}
		}
	}
	return out
}

// transition is one view change a node made, or with to zero the end of
// the run in a live node's final view.
type transition struct{ from, to id.View }

// transitions groups the nodes, in trace order, by the view transitions
// they made; the live nodes also share their final view's transition to
// the end of the run.
func (tr *Trace) transitions() map[transition][]id.Node {
	groups := make(map[transition][]id.Node)
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		for i := 0; i+1 < len(nt.Views); i++ {
			t := transition{from: nt.Views[i].View.ID, to: nt.Views[i+1].View.ID}
			groups[t] = append(groups[t], n)
		}
	}
	for _, n := range tr.live() {
		if v := tr.Nodes[n].FinalView.ID; v != 0 {
			groups[transition{from: v}] = append(groups[transition{from: v}], n)
		}
	}
	return groups
}

// checkTotalPrefix verifies total-order agreement with virtual-synchrony
// scope: two nodes that made the same transition out of a view (or both
// finished the run live in it) must have delivery sequences in that view
// that are prefixes of one another. A member partitioned away and evicted
// carries no agreement promise for deliveries it made alone on the
// minority side — it never rejoined the primary's history.
func (tr *Trace) checkTotalPrefix() []string {
	var out []string
	groups := tr.transitions()
	seqs := make(map[id.Node]map[id.View][]string)
	for _, n := range tr.Order {
		seqs[n] = make(map[id.View][]string)
		for _, d := range tr.Nodes[n].Deliveries {
			seqs[n][d.View] = append(seqs[n][d.View], string(d.Payload))
		}
	}
	var ts []transition
	for t := range groups {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].from != ts[j].from {
			return ts[i].from < ts[j].from
		}
		return ts[i].to < ts[j].to
	})
	for _, t := range ts {
		nodes := groups[t]
		for i, a := range nodes {
			for _, b := range nodes[i+1:] {
				sa, sb := seqs[a][t.from], seqs[b][t.from]
				for k := 0; k < min(len(sa), len(sb)); k++ {
					if sa[k] != sb[k] {
						out = append(out, fmt.Sprintf(
							"total: n%d and n%d diverge at position %d of view %d (%s vs %s)",
							a, b, k, t.from, payloadName(sa[k]), payloadName(sb[k])))
						break
					}
				}
			}
		}
	}
	return out
}

// deliveredIn returns the payload set a node delivered in one view.
func (nt *NodeTrace) deliveredIn(v id.View) map[string]bool {
	out := make(map[string]bool)
	for _, d := range nt.Deliveries {
		if d.View == v {
			out[string(d.Payload)] = true
		}
	}
	return out
}

// checkVSAgreement verifies virtual-synchrony agreement: two nodes that
// both made the view transition v -> v' delivered the same payload set in
// v, and the live members of the common final view delivered the same set
// there (the run ends quiescent, so those sets are complete).
func (tr *Trace) checkVSAgreement() []string {
	var out []string
	for t, nodes := range tr.transitions() {
		ref := tr.Nodes[nodes[0]].deliveredIn(t.from)
		for _, b := range nodes[1:] {
			if diff := setDiff(ref, tr.Nodes[b].deliveredIn(t.from)); diff != "" {
				out = append(out, fmt.Sprintf(
					"vs-agreement: n%d and n%d disagree on view %d deliveries (transition to %d): %s",
					nodes[0], b, t.from, t.to, diff))
			}
		}
	}
	return out
}

// setDiff describes the symmetric difference of two payload sets, empty
// when they are equal.
func setDiff(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, payloadName(k))
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, payloadName(k))
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return fmt.Sprintf("only-first=%v only-second=%v", onlyA, onlyB)
}

// checkViewIntegrity verifies that a view ID names one membership: any
// two installations of the same view ID anywhere carry the same members.
func (tr *Trace) checkViewIntegrity() []string {
	var out []string
	byID := make(map[id.View]member.View)
	for _, n := range tr.Order {
		for _, vr := range tr.Nodes[n].Views {
			prev, ok := byID[vr.View.ID]
			if !ok {
				byID[vr.View.ID] = vr.View
				continue
			}
			if !prev.Equal(vr.View) {
				out = append(out, fmt.Sprintf(
					"view-integrity: view %d installed with members %v and %v",
					vr.View.ID, prev.Members, vr.View.Members))
			}
		}
	}
	return out
}

// canProgress reports whether the live set is able to drive view changes:
// some live node's final view has its live members as a primary component
// (a strict majority, or exactly half including the view's lowest member,
// mirroring the membership engine's rule). When no live node has one,
// wedging short of convergence is the correct primary-partition outcome
// and the liveness invariants do not apply.
func (tr *Trace) canProgress() bool {
	isLive := make(map[id.Node]bool)
	for _, n := range tr.live() {
		isLive[n] = true
	}
	for n := range isLive {
		v := tr.Nodes[n].FinalView
		if v.ID == 0 || len(v.Members) == 0 {
			continue
		}
		survivors := 0
		for _, m := range v.Members {
			if isLive[m] {
				survivors++
			}
		}
		if survivors*2 > v.Size() ||
			(survivors*2 == v.Size() && isLive[v.Members[0]]) {
			return true
		}
	}
	return false
}

// checkViewConvergence verifies liveness: after the settle window every
// live node shares one final view, and its membership is exactly the live
// node set — downed nodes were evicted, stragglers caught up, stranded
// ex-members learned their eviction. Demanded only when the live set can
// form a primary component at all; a wedged minority is correct behavior.
func (tr *Trace) checkViewConvergence() []string {
	var out []string
	live := tr.live()
	if len(live) == 0 {
		return []string{"view-convergence: no live nodes at end of run"}
	}
	if !tr.canProgress() {
		return nil
	}
	ref := tr.Nodes[live[0]].FinalView
	for _, n := range live[1:] {
		if !tr.Nodes[n].FinalView.Equal(ref) {
			out = append(out, fmt.Sprintf(
				"view-convergence: n%d ends in view %d %v, n%d in view %d %v",
				live[0], ref.ID, ref.Members,
				n, tr.Nodes[n].FinalView.ID, tr.Nodes[n].FinalView.Members))
		}
	}
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		if nt.Up && nt.Joining {
			out = append(out, fmt.Sprintf("view-convergence: n%d still joining at end of run", n))
		}
	}
	want := make([]string, len(live))
	for i, n := range live {
		want[i] = fmt.Sprintf("n%d", n)
	}
	got := make([]string, len(ref.Members))
	for i, m := range ref.Members {
		got[i] = fmt.Sprintf("n%d", m)
	}
	if strings.Join(want, ",") != strings.Join(got, ",") {
		out = append(out, fmt.Sprintf(
			"view-convergence: final view members [%s] != live nodes [%s]",
			strings.Join(got, ","), strings.Join(want, ",")))
	}
	return out
}

// checkValidity verifies delivery liveness: a payload multicast by a node
// that never crashed, was never evicted and sits in the final view must
// reach every live member of that view.
func (tr *Trace) checkValidity() []string {
	if !tr.canProgress() {
		return nil // wedged minority: sends legitimately stay frozen
	}
	live := tr.live()
	good := make(map[id.Node]bool)
	for _, n := range live {
		nt := tr.Nodes[n]
		if !nt.CrashedEver && nt.FinalView.Contains(n) {
			good[n] = true
		}
	}
	return tr.checkComplete("validity", live, func(s id.Node) bool { return good[s] })
}

// checkComplete reports, as the named invariant, every payload from a
// sender good admits that one of nodes never delivered.
func (tr *Trace) checkComplete(name string, nodes []id.Node, good func(sender id.Node) bool) []string {
	var out []string
	for _, n := range nodes {
		have := make(map[string]bool)
		for _, d := range tr.Nodes[n].Deliveries {
			have[string(d.Payload)] = true
		}
		for key, rec := range tr.Sent {
			if good(rec.Sender) && !have[key] {
				out = append(out, fmt.Sprintf("%s: n%d never delivered %s from n%d",
					name, n, payloadName(key), rec.Sender))
			}
		}
	}
	return out
}

// repairStormBounds returns the per-node ceilings for recovery request
// and repair events over one chaos run. They are loose by design — an
// order of magnitude above what healthy backoff, suppression and damping
// produce on the worst generated schedules, and an order of magnitude
// below what a fixed-interval re-fire loop or an undamped repair storm
// produces over the same window.
func repairStormBounds(nodes int) (requests, repairs uint64) {
	return uint64(64 + 32*nodes), uint64(128 + 64*nodes)
}

func (tr *Trace) checkNoRepairStorm() []string {
	reqBound, srvBound := repairStormBounds(tr.Opts.Nodes)
	var out []string
	for _, n := range tr.Order {
		c := tr.Nodes[n].Recovery
		if c.NacksSent > reqBound {
			out = append(out, fmt.Sprintf(
				"no-repair-storm: n%d sent %d recovery requests (bound %d)",
				n, c.NacksSent, reqBound))
		}
		if c.NacksServed > srvBound {
			out = append(out, fmt.Sprintf(
				"no-repair-storm: n%d served %d repairs (bound %d)",
				n, c.NacksServed, srvBound))
		}
	}
	return out
}

// checkGCDrain verifies stability garbage collection: once the run is
// quiescent, no live member holds unstable history.
func (tr *Trace) checkGCDrain() []string {
	if !tr.canProgress() {
		return nil // a wedged minority's frozen history never drains
	}
	var out []string
	for _, n := range tr.live() {
		if h := tr.Nodes[n].FinalHistory; h > 0 {
			out = append(out, fmt.Sprintf(
				"gc-drain: n%d still holds %d unstable messages after settle", n, h))
		}
	}
	return out
}

// stallOnly reports whether some node stalled and the schedule's only
// membership-threatening faults are stalls and slow links: no crash,
// restart, partition or asymmetric block anywhere. The slow-receiver
// invariants quantify only over such runs, where any eviction is
// attributable to slow-member policy rather than to legitimate failure
// handling.
func (tr *Trace) stallOnly() bool {
	stalled := false
	for _, ev := range tr.Schedule {
		switch ev.Kind {
		case Crash, Restart, PartitionSplit, AsymmetricPartition:
			return false
		case Stall:
			stalled = true
		}
	}
	return stalled
}

// checkBoundedSenderMemory verifies the flow-control contract on runs
// with a window configured: the periodic sampler never caught any
// sender's own unstable backlog above FlowWindow, no matter how long a
// receiver stalled. Without the window the backlog grows with the stall
// (the ablation the T10 experiment measures); with it, Multicast must
// backpressure instead of buffering.
func (tr *Trace) checkBoundedSenderMemory() []string {
	w := tr.Opts.FlowWindow
	if w <= 0 {
		return nil
	}
	var out []string
	for _, n := range tr.Order {
		if p := tr.Nodes[n].FlowPeak; p > w {
			out = append(out, fmt.Sprintf(
				"bounded-sender-memory: n%d's unstable backlog peaked at %d, above flow window %d",
				n, p, w))
		}
	}
	return out
}

// checkNoFalseSlowEviction verifies that slowness is handled by policy,
// not by the failure detector, on stall-only schedules: a stalled member
// keeps sending heartbeats, so only the EvictSlow policy may remove it,
// only after its grace budget, and members that never stalled must not
// be evicted at all.
func (tr *Trace) checkNoFalseSlowEviction() []string {
	if !tr.stallOnly() {
		return nil
	}
	grace := tr.Opts.SlowGrace
	if grace <= 0 {
		grace = member.DefaultSlowGrace
	}
	var out []string
	for _, n := range tr.Order {
		nt := tr.Nodes[n]
		if !nt.Evicted {
			continue
		}
		switch {
		case !nt.StalledEver:
			out = append(out, fmt.Sprintf(
				"no-false-slow-eviction: n%d never stalled but was evicted", n))
		case tr.Opts.SlowPolicy != member.EvictSlow:
			out = append(out, fmt.Sprintf(
				"no-false-slow-eviction: n%d evicted under the %v policy (stall must only throttle)",
				n, tr.Opts.SlowPolicy))
		case nt.StallTotal < grace:
			out = append(out, fmt.Sprintf(
				"no-false-slow-eviction: n%d stalled %v, evicted before its %v grace",
				n, nt.StallTotal, grace))
		}
	}
	return out
}

// checkThroughputFloor verifies that one laggard cannot wedge a
// flow-controlled group running the EvictSlow policy: the window blocks
// while the laggard lags, the grace expires, the eviction reopens the
// window, and at least half the offered workload is still accepted and
// sent. (Under ThrottleToSlowest collapsing to the laggard's pace is the
// contract, so no floor applies.)
func (tr *Trace) checkThroughputFloor() []string {
	if tr.Opts.FlowWindow <= 0 || tr.Opts.SlowPolicy != member.EvictSlow || !tr.stallOnly() {
		return nil
	}
	if floor := tr.Opts.Msgs / 2; len(tr.Sent) < floor {
		return []string{fmt.Sprintf(
			"throughput-floor: only %d of %d offered multicasts were accepted (floor %d): the laggard wedged the window",
			len(tr.Sent), tr.Opts.Msgs, floor)}
	}
	return nil
}

// CheckHierTopology is the hierarchy well-formedness invariant, checked
// against every topology a node installs while the overlay reshapes:
//
//   - every member sits in exactly one cluster (and, when the expected
//     member set is given, the clusters cover exactly that set)
//   - every cluster has exactly one coordinator, drawn from the cluster
//     itself
//   - no cluster exceeds the fan-out bound
//   - the relay graph is acyclic: coordinators relay only for their own
//     cluster, so a coordinator appearing in another cluster's member
//     list (or twice) would create a forwarding cycle
//
// A nil members set skips the coverage check and validates the topology
// as self-consistent; fanOut <= 0 skips the bound.
func CheckHierTopology(topo hier.Topology, members []id.Node, fanOut int) []string {
	var out []string
	seen := make(map[id.Node]int)
	coords := make(map[id.Node]int)
	for i, c := range topo.Clusters {
		if len(c) == 0 {
			out = append(out, fmt.Sprintf("hier-form: cluster %d is empty", i))
			continue
		}
		if fanOut > 0 && len(c) > fanOut {
			out = append(out, fmt.Sprintf(
				"hier-form: cluster %d has %d members, beyond fan-out %d", i, len(c), fanOut))
		}
		for _, m := range c {
			if prev, dup := seen[m]; dup {
				out = append(out, fmt.Sprintf(
					"hier-form: n%d in clusters %d and %d (relay cycle risk)", m, prev, i))
				continue
			}
			seen[m] = i
		}
		r := topo.RelayOf(i)
		if r == id.None {
			out = append(out, fmt.Sprintf("hier-form: cluster %d has no coordinator", i))
			continue
		}
		if home, ok := seen[r]; !ok || home != i {
			out = append(out, fmt.Sprintf(
				"hier-form: cluster %d coordinator n%d is not one of its members", i, r))
		}
		if prev, dup := coords[r]; dup {
			out = append(out, fmt.Sprintf(
				"hier-form: n%d coordinates clusters %d and %d (relay cycle)", r, prev, i))
		}
		coords[r] = i
	}
	if members != nil {
		want := make(map[id.Node]bool, len(members))
		for _, m := range members {
			want[m] = true
			if _, ok := seen[m]; !ok {
				out = append(out, fmt.Sprintf("hier-form: n%d missing from every cluster", m))
			}
		}
		for m := range seen {
			if !want[m] {
				out = append(out, fmt.Sprintf("hier-form: n%d clustered but not a member", m))
			}
		}
	}
	return out
}
