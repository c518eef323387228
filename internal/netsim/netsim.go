// Package netsim is a deterministic discrete-event network simulator. It
// drives the same protocol engines that run live over UDP (see
// internal/proto) under virtual time, which is what makes the paper-style
// experiments reproducible: given one seed, every message arrival, loss and
// timer tick happens at exactly the same virtual instant on every run.
//
// The simulator owns a single event queue ordered by virtual time. Node
// handlers execute synchronously on the simulation goroutine; calls to
// Env.Send enqueue future delivery events according to the configured link
// profile (propagation delay, jitter, loss). Periodic OnTick events are
// self-rescheduling.
//
// The implementation is built for thousand-node sweeps: events are plain
// values (no per-event closure or heap allocation on the send/tick paths),
// the virtual-time queue is sharded into per-quantum buckets so each heap
// stays small, decoded messages reuse one scratch value per simulation, and
// traffic counters are flat arrays rather than maps. Determinism is
// unchanged — events execute in exact (time, insertion-seq) order.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// Link describes the directed network path between two nodes.
type Link struct {
	// Delay is the base one-way propagation delay.
	Delay time.Duration
	// Jitter is the maximum extra uniform random delay.
	Jitter time.Duration
	// Loss is the drop probability in [0, 1].
	Loss float64
	// Duplicate is the probability in [0, 1] that a datagram surviving
	// loss is delivered twice, each copy with independent jitter.
	Duplicate float64
	// Bandwidth is the link capacity in bytes per second; zero means
	// unlimited. A finite bandwidth adds serialization time per
	// datagram and FIFO queueing delay behind earlier traffic on the
	// same directed link.
	Bandwidth float64
}

// Profile maps a directed node pair to its link characteristics.
type Profile func(from, to id.Node) Link

// LANProfile returns a uniform profile resembling an early-90s campus LAN
// segment: fixed base delay, small jitter, optional loss.
func LANProfile(delay, jitter time.Duration, loss float64) Profile {
	l := Link{Delay: delay, Jitter: jitter, Loss: loss}
	return func(_, _ id.Node) Link { return l }
}

// Config parameterizes a simulation.
type Config struct {
	// Seed fixes all randomness. The zero seed is replaced by 1.
	Seed int64
	// Tick is the cadence of OnTick events. Defaults to 5ms.
	Tick time.Duration
	// Profile supplies link characteristics. Defaults to a 1ms LAN.
	Profile Profile
	// Windowed makes the simulator serve proto.Windowed the way the live
	// runner does: OnActivationEnd after every event a node handles — and
	// on every node, in the order they were added, after a scripted At
	// action, which may have called into any engine — and OnWindow at the
	// handler's cadence in virtual time. Off by default so that every
	// recorded experiment keeps its datagram sequence (with it on, a
	// total-order sequencer at low rate announces per message, not per
	// tick); the tests of that path turn it on.
	Windowed bool
}

// kindSlots bounds the flat per-kind counter arrays; wire kinds are a
// small closed enum well under this.
const kindSlots = 64

// Stats aggregates transport-level traffic counts, used by the control
// overhead experiments.
type Stats struct {
	// SentByKind counts datagrams submitted per message kind.
	SentByKind map[wire.Kind]uint64
	// BytesByKind counts encoded payload bytes per message kind.
	BytesByKind map[wire.Kind]uint64
	// DroppedByKind counts datagrams lost to the link model, partitions
	// or crashed receivers, per message kind.
	DroppedByKind map[wire.Kind]uint64
	// SentBytesByNode counts encoded bytes submitted per sending node —
	// the per-member bytes-on-wire metric of the bulk-dissemination
	// experiment (T9), whose claim is about the most-loaded member.
	SentBytesByNode map[id.Node]uint64
	// Dropped counts datagrams lost to the link model, partitions or
	// crashed receivers.
	Dropped uint64
	// Delivered counts datagrams handed to handlers.
	Delivered uint64
}

// TotalSent returns the total datagram count.
func (s *Stats) TotalSent() uint64 {
	var t uint64
	for _, n := range s.SentByKind {
		t += n
	}
	return t
}

// TotalBytes returns the total encoded byte count.
func (s *Stats) TotalBytes() uint64 {
	var t uint64
	for _, n := range s.BytesByKind {
		t += n
	}
	return t
}

// lossKey identifies one logical multicast packet crossing into one loss
// domain at one virtual instant; see SetLossDomains.
type lossKey struct {
	from   id.Node
	sender id.Node
	seq    uint64
	domain int32
	kind   wire.Kind
}

// Sim is a discrete-event simulation. It is not safe for concurrent use:
// build the topology, schedule scripted actions with At, then call Run.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	start time.Time
	now   time.Time
	nowNs int64 // now - start, the queue's clock
	queue eventQueue
	seq   uint64
	nodes map[id.Node]*simNode
	order []*simNode // in AddNode order; kept only under Config.Windowed

	partition map[id.Node]int

	sentByKind      [kindSlots]uint64
	bytesByKind     [kindSlots]uint64
	droppedByKind   [kindSlots]uint64
	sentBytesByNode map[id.Node]uint64
	dropped         uint64
	delivered       uint64

	// busyUntil models FIFO transmission queues per directed link.
	busyUntil map[linkPair]int64

	// blocked drops traffic on individual directed links — the
	// asymmetric-reachability fault (A hears B, B never hears A) that
	// symmetric partitions cannot express.
	blocked map[linkPair]bool

	// addressing, when enabled, models peer-address knowledge: a node can
	// send to another only if it was configured with the peer's address
	// (Know) or has learned it from an inbound datagram, mirroring the
	// UDP endpoint's return-address learning. Off by default so existing
	// simulations keep their everyone-reaches-everyone behaviour.
	addressing bool
	known      map[linkPair]bool // {from,to}: from holds to's address

	// lossDomain groups receivers into correlated loss domains; lossMemo
	// caches one loss draw per (packet, domain) within a virtual instant
	// and is cleared whenever time advances.
	lossDomain func(id.Node) int
	lossMemo   map[lossKey]bool
}

// linkPair keys the per-link transmission queue state.
type linkPair struct{ from, to id.Node }

// New returns an empty simulation.
func New(cfg Config) *Sim {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	if cfg.Profile == nil {
		cfg.Profile = LANProfile(time.Millisecond, 0, 0)
	}
	start := time.Unix(0, 0).UTC()
	s := &Sim{
		cfg:             cfg,
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		start:           start,
		now:             start,
		nodes:           make(map[id.Node]*simNode),
		partition:       make(map[id.Node]int),
		busyUntil:       make(map[linkPair]int64),
		blocked:         make(map[linkPair]bool),
		known:           make(map[linkPair]bool),
		sentBytesByNode: make(map[id.Node]uint64),
	}
	s.queue.init(int64(cfg.Tick))
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Elapsed returns the virtual time since simulation start.
func (s *Sim) Elapsed() time.Duration { return time.Duration(s.nowNs) }

// Stats returns a copy of the traffic statistics.
func (s *Sim) Stats() Stats {
	cp := Stats{
		SentByKind:      make(map[wire.Kind]uint64),
		BytesByKind:     make(map[wire.Kind]uint64),
		DroppedByKind:   make(map[wire.Kind]uint64),
		SentBytesByNode: make(map[id.Node]uint64, len(s.sentBytesByNode)),
		Dropped:         s.dropped,
		Delivered:       s.delivered,
	}
	for n, v := range s.sentBytesByNode {
		cp.SentBytesByNode[n] = v
	}
	for k, v := range s.sentByKind {
		if v > 0 {
			cp.SentByKind[wire.Kind(k)] = v
		}
	}
	for k, v := range s.bytesByKind {
		if v > 0 {
			cp.BytesByKind[wire.Kind(k)] = v
		}
	}
	for k, v := range s.droppedByKind {
		if v > 0 {
			cp.DroppedByKind[wire.Kind(k)] = v
		}
	}
	return cp
}

// AddNode attaches a node and builds its protocol stack. The build
// function receives the node's Env and returns the handler that will see
// its events. Ticks are staggered per node so the whole population does
// not tick in lockstep.
func (s *Sim) AddNode(n id.Node, build func(env proto.Env) proto.Handler) proto.Handler {
	if _, ok := s.nodes[n]; ok {
		panic(fmt.Sprintf("netsim: node %s added twice", n))
	}
	node := &simNode{sim: s, self: n, up: true}
	s.nodes[n] = node
	node.handler = build(node)
	offset := s.rng.Int63n(int64(s.cfg.Tick))
	s.schedule(event{at: s.nowNs + offset, kind: evTick, node: node, epoch: node.epoch})
	if s.cfg.Windowed {
		s.order = append(s.order, node)
	}
	node.startWindows()
	return node.handler
}

// Replace swaps a node's protocol stack for a freshly built one at the
// current virtual time — the simulation of a process restart with empty
// engine state (Restart, by contrast, recovers the old state). The old
// handler's tick chain is retired via an epoch guard so the node never
// double-ticks.
func (s *Sim) Replace(n id.Node, build func(env proto.Env) proto.Handler) proto.Handler {
	node, ok := s.nodes[n]
	if !ok {
		panic(fmt.Sprintf("netsim: Replace of unknown node %s", n))
	}
	s.Crash(n) // releases any stalled backlog with the old process
	node.epoch++
	node.up = true
	node.handler = build(node)
	s.schedule(event{at: s.nowNs + int64(s.cfg.Tick), kind: evTick, node: node, epoch: node.epoch})
	node.startWindows()
	return node.handler
}

// At schedules a scripted action at the given offset from simulation start.
// Actions run on the simulation goroutine and may call into engines.
func (s *Sim) At(offset time.Duration, f func()) {
	at := int64(offset)
	if at < s.nowNs {
		at = s.nowNs
	}
	s.schedule(event{at: at, kind: evFunc, run: f})
}

// Crash marks a node failed: it stops ticking, sending and receiving.
// Any backlog a stall accumulated is lost with the process.
func (s *Sim) Crash(n id.Node) {
	if node, ok := s.nodes[n]; ok {
		node.up = false
		node.stalled = false
		for i := range node.backlog {
			ev := &node.backlog[i]
			if len(ev.buf) > 0 {
				s.drop(wire.Kind(ev.buf[0]))
			} else {
				s.dropped++
			}
			wire.PutBuf(ev.bp)
		}
		node.backlog = nil
	}
}

// Stall wedges a node's inbound path: the process stays alive — it keeps
// ticking, sending heartbeats and gossiping its (now stale) delivery
// state — but arriving datagrams queue in a backlog instead of reaching
// the handler, like a host whose receive thread is blocked on a full
// socket buffer or a long GC pause. Resume drains the backlog in arrival
// order. This is the slow-receiver fault: distinguishable from a crash
// precisely because the node's outbound traffic never stops.
func (s *Sim) Stall(n id.Node) {
	if node, ok := s.nodes[n]; ok && node.up {
		node.stalled = true
	}
}

// Resume unwedges a stalled node and delivers its queued backlog in
// arrival order at the current virtual instant.
func (s *Sim) Resume(n id.Node) {
	node, ok := s.nodes[n]
	if !ok || !node.stalled {
		return
	}
	node.stalled = false
	backlog := node.backlog
	node.backlog = nil
	for i := range backlog {
		s.deliver(&backlog[i])
	}
}

// Stalled reports whether a node's inbound path is currently wedged.
func (s *Sim) Stalled(n id.Node) bool {
	node, ok := s.nodes[n]
	return ok && node.stalled
}

// Restart brings a crashed node back (same engine state; the membership
// layer treats it as a recovered process).
func (s *Sim) Restart(n id.Node) {
	node, ok := s.nodes[n]
	if !ok || node.up {
		return
	}
	node.up = true
	s.schedule(event{at: s.nowNs + int64(s.cfg.Tick), kind: evTick, node: node, epoch: node.epoch})
	node.scheduleWindow()
}

// BlockDirected drops every datagram from one node to another while
// leaving the reverse direction intact — asymmetric reachability, the
// failure mode NATs and one-way filters produce.
func (s *Sim) BlockDirected(from, to id.Node) { s.blocked[linkPair{from, to}] = true }

// UnblockDirected removes a directed block.
func (s *Sim) UnblockDirected(from, to id.Node) { delete(s.blocked, linkPair{from, to}) }

// EnableAddressing turns on peer-address modelling: sends succeed only
// toward peers the sender knows (Know) or has learned from inbound
// traffic, mirroring the UDP endpoint's peer table.
func (s *Sim) EnableAddressing() { s.addressing = true }

// Know seeds a directed address entry: from holds to's address, as if
// configured with a static -peer flag.
func (s *Sim) Know(from, to id.Node) { s.known[linkPair{from, to}] = true }

// SetLossDomains groups receivers into correlated loss domains, the way a
// lossy subtree of a multicast distribution tree drops one packet for all
// receivers behind it. Each logical packet (sender, kind, seq) crossing
// from one node into one domain within a single virtual instant gets one
// loss draw shared by every receiver in the domain; distinct packets and
// distinct domains draw independently. A nil function restores the default
// fully-independent per-copy loss. Correlated loss is what makes
// suppression measurable: without it no two receivers ever share a gap.
func (s *Sim) SetLossDomains(domain func(id.Node) int) {
	s.lossDomain = domain
	if domain != nil && s.lossMemo == nil {
		s.lossMemo = make(map[lossKey]bool)
	}
}

// Partition splits the network into isolated groups, like
// transport.Fabric.Partition. Unlisted nodes share group 0.
func (s *Sim) Partition(groups ...[]id.Node) {
	s.partition = make(map[id.Node]int)
	for i, g := range groups {
		for _, n := range g {
			s.partition[n] = i + 1
		}
	}
}

// Heal removes any partition and any directed blocks.
func (s *Sim) Heal() {
	s.partition = make(map[id.Node]int)
	s.blocked = make(map[linkPair]bool)
}

// SetProfile swaps the link profile at the current virtual time. The chaos
// harness uses it to script loss and duplication bursts mid-run; traffic
// already in flight keeps the conditions it was sent under.
func (s *Sim) SetProfile(p Profile) {
	if p != nil {
		s.cfg.Profile = p
	}
}

// Profile returns the current link profile.
func (s *Sim) Profile() Profile { return s.cfg.Profile }

// Up reports whether a node is attached and not crashed.
func (s *Sim) Up(n id.Node) bool {
	node, ok := s.nodes[n]
	return ok && node.up
}

// Run processes events until virtual time reaches the given offset from
// simulation start. It returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	deadline := int64(until)
	processed := 0
	for {
		ev, ok := s.queue.popBefore(deadline)
		if !ok {
			break
		}
		if ev.at != s.nowNs {
			s.nowNs = ev.at
			s.now = s.start.Add(time.Duration(ev.at))
			if len(s.lossMemo) > 0 {
				clear(s.lossMemo)
			}
		}
		s.exec(&ev)
		processed++
	}
	if s.nowNs < deadline {
		s.nowNs = deadline
		s.now = s.start.Add(until)
	}
	return processed
}

// schedule enqueues one event, stamping the deterministic tiebreak seq.
func (s *Sim) schedule(ev event) {
	s.seq++
	ev.seq = s.seq
	s.queue.push(ev)
}

// exec dispatches one popped event.
func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.run()
		for _, n := range s.order {
			n.endActivation()
		}
	case evTick:
		ev.node.tick(ev.epoch)
	case evWindow:
		ev.node.closeWindow(ev.epoch)
	case evDeliver:
		s.deliver(ev)
	}
}

// drop records one lost datagram of the given kind.
func (s *Sim) drop(k wire.Kind) {
	s.dropped++
	if int(k) < kindSlots {
		s.droppedByKind[k]++
	}
}

// lost draws (or reuses, under correlated loss domains) the loss verdict
// for one datagram copy headed to one receiver.
func (s *Sim) lost(from, to id.Node, msg *wire.Message, loss float64) bool {
	if s.lossDomain == nil {
		return s.rng.Float64() < loss
	}
	key := lossKey{
		from:   from,
		sender: msg.Sender,
		seq:    msg.Seq,
		domain: int32(s.lossDomain(to)),
		kind:   msg.Kind,
	}
	if v, ok := s.lossMemo[key]; ok {
		return v
	}
	v := s.rng.Float64() < loss
	s.lossMemo[key] = v
	return v
}

// send models one datagram: encode, apply the link model, enqueue the
// delivery. Called from handlers via simNode.Send.
func (s *Sim) send(from, to id.Node, msg *wire.Message) {
	msg.From = from
	bp := wire.GetBuf()
	*bp = msg.Encode((*bp)[:0])
	buf := *bp
	if int(msg.Kind) < kindSlots {
		s.sentByKind[msg.Kind]++
		s.bytesByKind[msg.Kind] += uint64(len(buf))
	}
	s.sentBytesByNode[from] += uint64(len(buf))

	sender, ok := s.nodes[from]
	if !ok || !sender.up {
		wire.PutBuf(bp)
		return
	}
	link := s.cfg.Profile(from, to)
	if s.partition[from] != s.partition[to] || s.blocked[linkPair{from, to}] ||
		(s.addressing && !s.known[linkPair{from, to}]) {
		s.drop(msg.Kind)
		wire.PutBuf(bp)
		return
	}
	if link.Loss > 0 && s.lost(from, to, msg, link.Loss) {
		s.drop(msg.Kind)
		wire.PutBuf(bp)
		return
	}
	// Finite bandwidth: the datagram serializes after any earlier
	// traffic queued on this directed link. Serialization happens once;
	// duplication (below) models copies made inside the network.
	depart := s.nowNs
	if link.Bandwidth > 0 {
		key := linkPair{from, to}
		if busy, ok := s.busyUntil[key]; ok && busy > depart {
			depart = busy
		}
		depart += int64(float64(len(buf)) / link.Bandwidth * float64(time.Second))
		s.busyUntil[key] = depart
	}
	copies := 1
	if link.Duplicate > 0 && s.rng.Float64() < link.Duplicate {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		delay := int64(link.Delay) + (depart - s.nowNs)
		if link.Jitter > 0 {
			delay += s.rng.Int63n(int64(link.Jitter) + 1)
		}
		if delay <= 0 {
			delay = 1 // strictly-after-send delivery
		}
		cbp, cbuf := bp, buf
		if c > 0 {
			// The rare duplicated copy gets its own pooled buffer so
			// every delivery event owns its payload exclusively.
			cbp = wire.GetBuf()
			*cbp = append((*cbp)[:0], buf...)
			cbuf = *cbp
		}
		s.schedule(event{
			at:   s.nowNs + delay,
			kind: evDeliver,
			from: from,
			to:   to,
			buf:  cbuf,
			bp:   cbp,
		})
	}
}

// deliver hands one arriving datagram to its target handler.
func (s *Sim) deliver(ev *event) {
	node, ok := s.nodes[ev.to]
	if !ok || !node.up {
		if len(ev.buf) > 0 {
			s.drop(wire.Kind(ev.buf[0]))
		} else {
			s.dropped++
		}
		wire.PutBuf(ev.bp)
		return
	}
	if node.stalled {
		// Inbound path wedged: queue the datagram (the event retains its
		// pooled buffer) for Resume to drain in arrival order.
		node.backlog = append(node.backlog, *ev)
		return
	}
	// Decode a fresh message per delivery: ownership transfers to the
	// handler, which may retain it (rmcast keeps delivered messages in
	// its retransmission history), exactly as with the live endpoint.
	decoded, err := wire.Decode(ev.buf)
	wire.PutBuf(ev.bp)
	if err != nil {
		s.dropped++
		return
	}
	s.delivered++
	// Return-address learning, as the UDP endpoint does from datagram
	// sources: the receiver now knows the sender. Only tracked when the
	// addressing model is on — nothing reads the table otherwise.
	if s.addressing {
		s.known[linkPair{ev.to, ev.from}] = true
	}
	node.handler.OnMessage(ev.from, decoded)
	node.endActivation()
}

// simNode is one simulated host; it implements proto.Env for its handler.
// epoch guards the tick chain: Replace retires the old handler's chain by
// bumping it, so a replaced stack never double-ticks.
type simNode struct {
	sim     *Sim
	self    id.Node
	handler proto.Handler
	win     proto.Windowed // non-nil under Config.Windowed when the handler asks for a window
	window  int64          // its cadence, ns
	up      bool
	stalled bool
	backlog []event // inbound deliveries queued while stalled
	epoch   int32
}

var _ proto.Env = (*simNode)(nil)

func (n *simNode) Self() id.Node  { return n.self }
func (n *simNode) Now() time.Time { return n.sim.now }

func (n *simNode) Send(to id.Node, msg *wire.Message) {
	if !n.up {
		return
	}
	n.sim.send(n.self, to, msg)
}

// SendBatch and Flush present the same batch surface as the live
// transports (see transport.BatchSender). Under virtual time they are
// the identity: every Send within one handler activation already
// departs at the same virtual instant, so coalescing cannot change a
// delivery time or an event order. Keeping the surface here means
// engine code and drivers written against BatchSender behave
// identically under simulation and live.
func (n *simNode) SendBatch(to id.Node, msg *wire.Message) error {
	n.Send(to, msg)
	return nil
}

// Flush is a no-op under virtual time; see SendBatch.
func (n *simNode) Flush() error { return nil }

// CanReach mirrors transport.Reachability under the simulator's
// addressing model; with addressing off every attached node is reachable,
// matching the historical everyone-knows-everyone behaviour.
func (n *simNode) CanReach(to id.Node) bool {
	if _, ok := n.sim.nodes[to]; !ok {
		return false
	}
	return !n.sim.addressing || n.sim.known[linkPair{n.self, to}]
}

// tick delivers OnTick and reschedules itself while the node is up and
// its epoch is current.
func (n *simNode) tick(epoch int32) {
	if !n.up || epoch != n.epoch {
		return
	}
	n.handler.OnTick(n.sim.now)
	if n.win != nil && int64(n.sim.cfg.Tick) <= n.window {
		n.win.OnWindow(n.sim.now) // the tick is the window, as in noderun
	}
	n.endActivation()
	n.sim.schedule(event{at: n.sim.nowNs + int64(n.sim.cfg.Tick), kind: evTick, node: n, epoch: epoch})
}

// startWindows resolves the node's handler against proto.Windowed and
// starts its window cadence; a no-op unless Config.Windowed.
func (n *simNode) startWindows() {
	n.win = nil
	if !n.sim.cfg.Windowed {
		return
	}
	if w, ok := n.handler.(proto.Windowed); ok && w.Window() > 0 {
		n.win, n.window = w, int64(w.Window())
		n.scheduleWindow()
	}
}

// scheduleWindow enqueues the node's next window close, unless the tick
// closes the windows.
func (n *simNode) scheduleWindow() {
	if n.win != nil && int64(n.sim.cfg.Tick) > n.window {
		n.sim.schedule(event{at: n.sim.nowNs + n.window, kind: evWindow, node: n, epoch: n.epoch})
	}
}

// closeWindow delivers OnWindow and reschedules itself, like tick.
func (n *simNode) closeWindow(epoch int32) {
	if !n.up || epoch != n.epoch {
		return
	}
	n.win.OnWindow(n.sim.now)
	n.endActivation()
	n.scheduleWindow()
}

// endActivation gives a windowed handler its last word on the event just
// handled.
func (n *simNode) endActivation() {
	if n.win != nil && n.up {
		n.win.OnActivationEnd()
	}
}
