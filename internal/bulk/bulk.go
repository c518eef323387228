// Package bulk implements erasure-coded bulk-object dissemination: the
// pre-distribution and state-transfer path the paper's architecture
// promises but plain reliable multicast cannot scale to. A publisher
// splits an object into generations of k data symbols, extends each
// generation with r Reed-Solomon repair symbols (internal/fec), and
// scatters each coded symbol to exactly one member, which re-fans its
// 1/N-th share to the rest of the group. The sender therefore transmits
// Θ(F) bytes for an F-byte object instead of the Θ(F·N) a flat reliable
// multicast costs it, and no single member transmits more than ~2F(1+r/k)
// — the raptorcast shape. Only the manifest (object ID, size, geometry,
// per-generation CRC-64 hashes) rides the ordered reliable channel.
//
// The receivers set r. Each one counts the data symbols the scatter
// delivered to it and tells the origin, in its completion report, how
// many it had to get some other way. An origin codes Config.RepairShards
// repair symbols per generation until it has heard a completion report,
// and from then on only while the latest report of some receiver shows
// loss; a path that shows none gets r = 0 — the data symbols alone, no
// coding work — and whatever such an object does lose is pulled.
//
// A publisher announces the manifest first and scatters second, so on an
// ordered path symbols find their object waiting; symbols that still beat
// the manifest wait in a small bounded stash and are replayed when it
// arrives. A relay's duty does not depend on its own progress: a flagged
// symbol is re-fanned exactly once whether or not the relay still needs
// it.
//
// The scatter is clocked by its receivers. Every receiver tells the origin
// how far the scatter has reached it — sparsely: a few reports per window,
// one at completion — and the origin keeps no more symbol payload ahead
// of the slowest reporting member than the receivers' socket buffers hold
// (scatterWindowBytes). An object within the window leaves in one pass; a
// larger one is paced by the drain rate of the slowest live receiver on
// whatever path it sits behind, not by a rate tuned to one host. A member
// that reports nothing while the window waits for it stops counting after
// RequestEvery, and its share falls to the pull path.
//
// Receivers reconstruct each generation from ANY k of its k+r symbols —
// as soon as its k data symbols are in, or on the next tick when repair
// symbols have to stand in for one that is not coming. Whatever the
// scatter and loss leave missing is pulled with unicast symbol requests.
// The pull is self-clocked too: Config.MaxRequests requests are kept
// outstanding, every reply or decoded generation tops the window up at
// once, and RequestEvery is only the timeout after which an
// unanswered request moves to its next target — the designated relay if
// it was seen sourcing the object, the origin, then the remaining peers
// — so one crashed relay never strands a transfer. A peer that does not
// hold a requested symbol says so (a body-less symbol), which moves the
// request on after one round trip instead of one timeout.
//
// Under Config.RelayPlan the re-fan follows the hierarchical overlay: a
// relay fans to its own cluster plus the remote cluster coordinators
// (FlagBulkFan), and each coordinator re-fans locally, bounding relay
// depth at two hops.
//
// The engine is a proto.Handler like every other layer: synchronous,
// deterministic (no randomness; request targets rotate by symbol and
// requester), and identical under netsim and live UDP.
package bulk

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"time"

	"scalamedia/internal/fec"
	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// Geometry and engine defaults.
const (
	// DefaultSymbolSize is the coded-symbol payload length.
	DefaultSymbolSize = 1024
	// DefaultDataShards is k, the data symbols per generation.
	DefaultDataShards = 16
	// DefaultRepairShards is r, the repair symbols per generation.
	DefaultRepairShards = 4
	// RequestEvery is the timeout after which an unanswered request is
	// re-sent to its next target, the quiet period — no advance of the
	// scatter — after which a scattered object starts pulling what the
	// scatter left missing, and the silence after which the origin stops
	// waiting for a member's progress report.
	RequestEvery = 100 * time.Millisecond
	// DefaultMaxRequests is the window of outstanding symbol requests per
	// object.
	DefaultMaxRequests = 64
	// DefaultMaxObjects bounds retained objects; beyond it the oldest
	// completed object is evicted.
	DefaultMaxObjects = 8
	// MaxObjectSize bounds a published object.
	MaxObjectSize = 1 << 28
)

// Pre-manifest stash bounds. Symbols that arrive before their manifest
// (network reordering, a total-order wait, a lost manifest under repair)
// are kept instead of re-pulled, but never without bound: the cap holds
// one whole scatter of a 1 MiB object at the default geometry, and
// nothing outlives stashMaxAge.
const (
	stashCapBytes = 2 << 20
	// stashEntryCost is charged per stashed symbol on top of its payload
	// for the retained message header, so a flood of tiny symbols cannot
	// evade the byte cap.
	stashEntryCost = 128
	stashMaxAge    = 2 * time.Second
)

// Scatter window. Every receiver sees each scattered symbol once, straight
// from the origin or one relay hop later, so what the origin has sent and
// a receiver has not yet taken off its socket sits in that receiver's
// socket buffer. The transport asks the kernel for 4 MiB, and the kernel
// charges a datagram its buffer, not its payload — about 2.3 KiB for a
// 1 KiB symbol — so half of that in payload is what the buffer holds with
// room to spare: 16 MiB objects on loopback lost 200 to 1 100 datagrams
// each to RcvbufErrors with a 4 MiB window, some with 3 MiB, none with 2.
// scatterWindowBytes is that memory bound — not a rate: the origin stops
// when the symbol payload it has sent beyond the slowest gating member's
// reported position, summed over the scatters in progress, reaches it, and
// goes on when a report moves that position.
//
// A scatter position is gen·(K+R)+idx, the order symbols are sent in. A
// receiver reports the first position it has not seen yet (highest seen
// plus one, so loss below it does not hold the report back): whenever that
// has moved a scatterReportsPerWindow-th of the window since its last
// report, on a tick when it has moved at all and RequestEvery/2 has passed
// (so a receiver behind a slow link keeps gating however slow the link),
// and at completion, which reports the whole object seen. A report is a
// KindBulkReq carrying FlagBulkReport, Aux = gen<<32|idx of that position.
const (
	scatterWindowBytes      = 2 << 20
	scatterReportsPerWindow = 4
)

// Errors.
var (
	// ErrTooLarge reports an object above MaxObjectSize (or empty).
	ErrTooLarge = fmt.Errorf("bulk: object empty or larger than %d bytes", MaxObjectSize)
	// ErrDuplicateObject reports a Publish reusing a live object ID.
	ErrDuplicateObject = fmt.Errorf("bulk: object ID already in use")
)

// Object is one completed bulk object, handed to Config.OnObject.
type Object struct {
	ID     uint64
	Origin id.Node
	Data   []byte
}

// Progress reports transfer advancement, handed to Config.OnProgress
// after each completed generation.
type Progress struct {
	ID     uint64
	Origin id.Node
	// Done and Total count generations.
	Done, Total int
}

// Config parameterizes an Engine.
type Config struct {
	// Group tags the engine's symbol traffic.
	Group id.Group
	// SymbolSize and DataShards fix the coding geometry for objects
	// published by this node; RepairShards is r on a path that shows loss
	// (see Publish). Zero values take the defaults.
	SymbolSize   int
	DataShards   int
	RepairShards int
	// MaxRequests is the window of symbol requests a transfer keeps
	// outstanding; a reply or a decoded generation refills it at once.
	MaxRequests int
	// MaxObjects bounds retained objects.
	MaxObjects int
	// RelayPlan, when non-nil, supplies the hierarchical fan-out for a
	// relayed symbol: the members of this node's own cluster and the
	// coordinators of the remote clusters. Empty slices (topology not
	// formed yet) fall back to the flat everyone fan.
	RelayPlan func() (local, remote []id.Node)
	// Distance, when non-nil, estimates the one-way delay to a peer
	// (AutoHier stacks wire it to the overlay's RTT matrix). Beyond the
	// designated relay and the origin, repair requests then go to the
	// nearest peers instead of rotating over the whole membership; peers
	// with no estimate yet (a zero return) and a nil Distance keep the
	// rotation fallback.
	Distance func(id.Node) time.Duration
	// OnObject receives completed objects.
	OnObject func(Object)
	// OnProgress receives per-generation progress.
	OnProgress func(Progress)
}

// symSet is a set of symbol indices within one generation; a manifest
// admits at most 255 symbols per generation.
type symSet [4]uint64

func (s *symSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s *symSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s *symSet) del(i int)      { s[i>>6] &^= 1 << (i & 63) }
func (s *symSet) len() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// generation tracks one generation's symbols at a receiver.
type generation struct {
	shards [][]byte // k+r slots; nil = missing
	have   int
	data   int // of have, how many are data symbols (index < k)
	done   bool
	fanned symSet // flagged symbols already re-fanned (relay duty, once each)
	asked  symSet // symbols with a request outstanding
	got    symSet // data symbols that arrived unsolicited
}

// request is one outstanding symbol request.
type request struct {
	gen, idx int
	target   id.Node
	attempt  int // how many targets have been tried before this one
	deadline time.Time
}

// object is one transfer, publishing or receiving.
type object struct {
	man      Manifest
	rs       *fec.RS
	gens     []generation
	doneGens int
	complete bool
	data     []byte // assembled object once complete

	// Receive side.
	began   time.Time        // manifest arrival, for bulk.transfer_ms
	sources map[id.Node]bool // peers a symbol of this object has come from
	// ripe is set while some generation holds k symbols but not all k data
	// symbols and waits for the next tick to be decoded (see onSymbol).
	ripe bool
	// Pull state: once pulling, out holds at most MaxRequests outstanding
	// requests and cursor is the first generation that may still need one.
	// A scattered object starts pulling when its scatter has not advanced
	// by quiet, and asks for nothing new while it advances again: a
	// scatter that stalled on a silent member resumes just as its receivers
	// lose patience, and a pull racing it would fetch the rest of the
	// object from the origin a second time.
	pulling bool
	quiet   time.Time
	cursor  int
	out     []request
	// Scatter progress: top is the first scatter position not yet seen
	// (unsolicited symbols only; zero until the scatter reaches this node),
	// reported its value in the last report to the origin, sent at
	// reportedAt.
	top, reported int
	reportedAt    time.Time

	// Publish side: this object's place in the origin's publish order.
	pub uint64
}

// scatter is one published object's progress through Scatter, kept from
// the Scatter call until every gating member has seen all of it: positions
// below next have been sent, total is one past the last.
type scatter struct {
	obj         uint64
	next, total int
	symbolSize  int
	// gates are the members whose reports hold this scatter's share of the
	// window: everyone in the view when the scatter began, minus those
	// that left it or fell silent since.
	gates []gate
}

// gate is one member's reported progress through a scatter.
type gate struct {
	member id.Node
	seen   int       // first position the member has not reported seeing
	at     time.Time // when seen last moved, or the scatter began
}

// floor returns the slowest gating member's reported position; the
// scatter must have a gate.
func (sc *scatter) floor() int {
	floor := sc.gates[0].seen
	for _, g := range sc.gates[1:] {
		floor = min(floor, g.seen)
	}
	return floor
}

// inflight returns the symbol payload sent beyond the slowest gating
// member's reported position. A scatter nobody gates has nothing in flight
// that anything waits for.
func (sc *scatter) inflight() int {
	if len(sc.gates) == 0 {
		return 0
	}
	return max(0, sc.next-sc.floor()) * sc.symbolSize
}

// stashed is one symbol that arrived before its manifest.
type stashed struct {
	from id.Node
	msg  *wire.Message
	at   time.Time
}

func (s stashed) cost() int { return len(s.msg.Body) + stashEntryCost }

// lossReport is what a receiver's completion report for one of this
// node's objects said: whether the scatter failed to deliver any data
// symbol to it, and which object (by publish order) it was about.
type lossReport struct {
	pub   uint64
	lossy bool
}

// metrics are the engine's live counters (DESIGN §7), resolved once so
// the symbol path pays plain atomic adds.
type metrics struct {
	symbolsRx          *stats.Counter // KindBulkSym datagrams received
	symbolsDup         *stats.Counter // valid symbols not needed (held, or generation/object done)
	symbolsStashed     *stats.Counter // symbols kept for a manifest not yet seen
	symbolsFanned      *stats.Counter // flagged symbols re-fanned (relay duty)
	requestsSent       *stats.Counter
	requestsServed     *stats.Counter
	requestsUnservable *stats.Counter // requests for a symbol this node does not hold
	requestsTimedOut   *stats.Counter // requests re-targeted after RequestEvery
	objectsCompleted   *stats.Counter // objects reconstructed here
	transferMs         *stats.Histogram
	reportsSent        *stats.Counter // progress reports sent to an origin
	reportsRx          *stats.Counter // progress reports that moved a gate here
	scatterWaits       *stats.Counter // times the scatter stopped on a shut window
	scatterUngated     *stats.Counter // members dropped from a scatter's gates for silence
	scatterInflight    *stats.Gauge   // payload bytes sent beyond the slowest gating member
	scatterInflightMax *stats.Gauge   // its peak
	scatterRepair      *stats.Gauge   // r chosen by the latest Publish
	repairSent         *stats.Counter // repair symbols sent: scattered, re-fanned or served
}

func newMetrics(reg *stats.Registry) metrics {
	return metrics{
		symbolsRx:          reg.Counter("bulk.symbols_rx"),
		symbolsDup:         reg.Counter("bulk.symbols_dup"),
		symbolsStashed:     reg.Counter("bulk.symbols_stashed"),
		symbolsFanned:      reg.Counter("bulk.symbols_fanned"),
		requestsSent:       reg.Counter("bulk.requests_sent"),
		requestsServed:     reg.Counter("bulk.requests_served"),
		requestsUnservable: reg.Counter("bulk.requests_unservable"),
		requestsTimedOut:   reg.Counter("bulk.requests_timed_out"),
		objectsCompleted:   reg.Counter("bulk.objects_completed"),
		transferMs:         reg.Histogram("bulk.transfer_ms"),
		reportsSent:        reg.Counter("bulk.reports_sent"),
		reportsRx:          reg.Counter("bulk.reports_rx"),
		scatterWaits:       reg.Counter("bulk.scatter_window_waits"),
		scatterUngated:     reg.Counter("bulk.scatter_ungated"),
		scatterInflight:    reg.Gauge("bulk.scatter_inflight_bytes"),
		scatterInflightMax: reg.Gauge("bulk.scatter_inflight_peak_bytes"),
		scatterRepair:      reg.Gauge("bulk.scatter_repair_shards"),
		repairSent:         reg.Counter("bulk.repair_symbols_sent"),
	}
}

// Engine is one node's bulk-dissemination state. It implements
// proto.Handler for the KindBulkSym / KindBulkReq plane; manifests enter
// through OnManifest or Pull (they travel on the caller's reliable
// channel).
type Engine struct {
	env     proto.Env
	cfg     Config
	m       metrics
	members []id.Node // sorted; the scatter/request universe
	near    []id.Node // members with known distance, nearest first
	objects map[uint64]*object
	order   []uint64 // insertion order, for deterministic ticks + eviction

	stash      []stashed // arrival order
	stashBytes int

	// Scatters in progress, oldest first, and the window they share: the
	// bound on their summed inflight. sentAt is when a scattered symbol last
	// left; shut is set while the last pump ended on a shut window.
	scatters []scatter
	window   int
	sentAt   time.Time
	shut     bool

	// What each member's completion report for the latest of this node's
	// objects it finished said, and how many objects this node published.
	losses map[id.Node]lossReport
	pubs   uint64

	out   wire.Message // scratch for every send; Env.Send does not retain it
	cands []id.Node    // rank scratch
}

var _ proto.Handler = (*Engine)(nil)

// New returns an empty engine.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.SymbolSize <= 0 {
		cfg.SymbolSize = DefaultSymbolSize
	}
	if cfg.DataShards <= 0 {
		cfg.DataShards = DefaultDataShards
	}
	if cfg.RepairShards <= 0 {
		cfg.RepairShards = DefaultRepairShards
	}
	if cfg.MaxRequests <= 0 {
		cfg.MaxRequests = DefaultMaxRequests
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = DefaultMaxObjects
	}
	return &Engine{
		env:     env,
		cfg:     cfg,
		m:       newMetrics(stats.NewRegistry()),
		objects: make(map[uint64]*object),
		window:  scatterWindowBytes,
		losses:  make(map[id.Node]lossReport),
	}
}

// SetMetrics reports the engine's counters (bulk.*) into reg from now on.
// Call it before the engine sees traffic.
func (e *Engine) SetMetrics(reg *stats.Registry) {
	if reg != nil {
		e.m = newMetrics(reg)
	}
}

// SetMembers installs the current group membership, the universe symbols
// scatter over and repair requests rotate through. A member that left
// stops gating the scatters in progress, which move on at once.
func (e *Engine) SetMembers(ms []id.Node) {
	e.members = e.members[:0]
	for _, m := range ms {
		if m != id.None {
			e.members = append(e.members, m)
		}
	}
	slices.Sort(e.members)
	maps.DeleteFunc(e.losses, func(m id.Node, _ lossReport) bool {
		_, member := slices.BinarySearch(e.members, m)
		return !member
	})
	if len(e.scatters) == 0 {
		return
	}
	for i := range e.scatters {
		sc := &e.scatters[i]
		sc.gates = slices.DeleteFunc(sc.gates, func(g gate) bool {
			_, member := slices.BinarySearch(e.members, g.member)
			return !member
		})
	}
	e.pumpScatter(e.env.Now())
}

// crcTable is the ECMA-182 polynomial's table; crc64 takes its slicing-by-8
// path for it.
var crcTable = crc64.MakeTable(crc64.ECMA)

// genHash is the per-generation content hash: CRC-64/ECMA over the k
// padded data symbols in index order.
func genHash(shards [][]byte, k int) uint64 {
	var crc uint64
	for i := 0; i < k; i++ {
		crc = crc64.Update(crc, crcTable, shards[i])
	}
	return crc
}

// repairShards returns r for the next object this node publishes:
// Config.RepairShards until some member's completion report has been
// heard, and after that while the latest report of any member shows loss;
// zero when none does.
func (e *Engine) repairShards() int {
	if len(e.losses) == 0 {
		return e.cfg.RepairShards
	}
	for _, l := range e.losses {
		if l.lossy {
			return e.cfg.RepairShards
		}
	}
	return 0
}

// Publish splits data into coded symbols and retains them for serving. It
// returns the manifest the caller must carry to receivers on the reliable
// channel — before it calls Scatter, so symbols find their object waiting.
// An object that is never scattered (state transfer) is merely registered;
// receivers Pull every symbol they need. The object carries r repair
// symbols per generation as repairShards decides; Manifest.R says which.
func (e *Engine) Publish(objID uint64, data []byte) (Manifest, error) {
	if len(data) == 0 || len(data) > MaxObjectSize {
		return Manifest{}, ErrTooLarge
	}
	if o, exists := e.objects[objID]; exists {
		// Republishing the same bytes (a state snapshot re-offered to a
		// second joiner) is idempotent; anything else is a caller bug.
		if o.complete && string(o.data) == string(data) {
			return o.man, nil
		}
		return Manifest{}, fmt.Errorf("%w: %d", ErrDuplicateObject, objID)
	}
	k, r, symSize := e.cfg.DataShards, e.repairShards(), e.cfg.SymbolSize
	rs, err := fec.NewRS(k, r)
	if err != nil {
		return Manifest{}, fmt.Errorf("bulk publish: %w", err)
	}
	perGen := k * symSize
	genCount := (len(data) + perGen - 1) / perGen
	man := Manifest{
		Object:     objID,
		Size:       uint64(len(data)),
		Origin:     e.env.Self(),
		SymbolSize: symSize,
		K:          k,
		R:          r,
		GenHashes:  make([]uint64, genCount),
	}
	// Three slabs per object instead of one slice per symbol: the padded
	// copy of the data doubles as every data symbol, the repair symbols
	// share a second, the shard tables a third.
	padded := make([]byte, genCount*perGen)
	copy(padded, data)
	repair := make([]byte, genCount*r*symSize)
	tables := make([][]byte, genCount*(k+r))
	o := &object{
		man:      man,
		rs:       rs,
		gens:     make([]generation, genCount),
		doneGens: genCount,
		complete: true,
		data:     padded[:len(data):len(data)],
		pub:      e.pubs,
	}
	for g := 0; g < genCount; g++ {
		shards := tables[g*(k+r) : (g+1)*(k+r) : (g+1)*(k+r)]
		for i := 0; i < k; i++ {
			off := g*perGen + i*symSize
			shards[i] = padded[off : off+symSize : off+symSize]
		}
		for i := 0; i < r; i++ {
			off := (g*r + i) * symSize
			shards[k+i] = repair[off : off+symSize : off+symSize]
		}
		if err := rs.Encode(shards); err != nil {
			return Manifest{}, fmt.Errorf("bulk publish: %w", err)
		}
		man.GenHashes[g] = genHash(shards, k)
		o.gens[g] = generation{shards: shards, have: k + r, done: true}
	}
	e.pubs++
	e.m.scatterRepair.Set(int64(r))
	e.insert(objID, o)
	return man, nil
}

// Scatter stripes the coded symbols of an object this node published
// across the group: each symbol goes to its designated relay, flagged so
// the relay re-fans it to everyone else. Call it after the manifest is on
// its way. Symbols leave at once while the scatter window has room, and
// from then on as the receivers' reports make room (OnMessage; OnTick only
// times silent members out).
func (e *Engine) Scatter(objID uint64) {
	o, ok := e.objects[objID]
	if !ok || !o.complete || o.man.Origin != e.env.Self() {
		return
	}
	now := e.env.Now()
	sc := scatter{obj: objID, total: len(o.gens) * (o.man.K + o.man.R), symbolSize: o.man.SymbolSize}
	for _, m := range e.members {
		if m != o.man.Origin {
			sc.gates = append(sc.gates, gate{member: m, at: now})
		}
	}
	e.scatters = append(e.scatters, sc)
	e.pumpScatter(now)
}

// pumpScatter sends what the window allows of the scatters in progress,
// oldest first, and stops when the window is shut. A gating member that
// owes a report and has brought none for RequestEvery since the last
// symbol left stops gating: a stalled or crashed receiver costs a scatter
// one timeout, and pulls what it missed when it comes back.
func (e *Engine) pumpScatter(now time.Time) {
	if len(e.scatters) == 0 {
		return
	}
	sent, shut := e.sendScatters(now)
	for e.ungateSilent(now) {
		var n int
		n, shut = e.sendScatters(now)
		sent += n
	}
	if shut && (sent > 0 || !e.shut) {
		e.m.scatterWaits.Inc() // once per stop, not per tick spent waiting
	}
	e.shut = shut
	// Retire the scatters with nothing left to send or to wait for.
	inflight := 0
	e.scatters = slices.DeleteFunc(e.scatters, func(sc scatter) bool {
		n := sc.inflight()
		inflight += n
		return sc.next == sc.total && n == 0
	})
	e.m.scatterInflight.Set(int64(inflight))
	e.m.scatterInflightMax.Set(max(e.m.scatterInflightMax.Value(), int64(inflight)))
}

// sendScatters sends symbols while the window has room and reports how
// many, and whether it stopped on a shut window with symbols left to send.
func (e *Engine) sendScatters(now time.Time) (sent int, shut bool) {
	inflight := 0
	for i := range e.scatters {
		inflight += e.scatters[i].inflight()
	}
	for i := range e.scatters {
		sc := &e.scatters[i]
		inflight -= sc.inflight() // of the other scatters, from here on
		o := e.objects[sc.obj]
		if o == nil || len(sc.gates) == 0 {
			// Evicted, or nobody left who reports on it: every receiver is
			// on the pull path already, and sending the rest blind would
			// flood whatever made them silent.
			sc.next, sc.gates = sc.total, nil
			continue
		}
		// The first position the window does not cover: what the other
		// scatters leave of it, counted from this one's slowest member.
		limit := sc.floor() + (e.window-inflight)/sc.symbolSize
		for w := o.man.K + o.man.R; sc.next < sc.total; sc.next++ {
			if sc.next >= limit {
				return sent, true
			}
			g, i := sc.next/w, sc.next%w
			// Never this node, it is the origin; nobody once the view is
			// down to the origin alone.
			if relay := e.relayOf(o.man, g, i); relay != id.None {
				e.sentAt = now
				e.sendSym(relay, o.man, g, i, o.gens[g].shards[i], wire.FlagBulkFan)
				sent++
			}
		}
		inflight += sc.inflight()
	}
	return sent, false
}

// ungateSilent drops the gates that owe a report and have brought none for
// RequestEvery — counted from the last symbol sent, so never while the
// scatter is moving — and reports whether it dropped any.
func (e *Engine) ungateSilent(now time.Time) (dropped bool) {
	for i := range e.scatters {
		sc := &e.scatters[i]
		sc.gates = slices.DeleteFunc(sc.gates, func(g gate) bool {
			since := e.sentAt
			if g.at.After(since) {
				since = g.at
			}
			if g.seen >= sc.next || now.Sub(since) < RequestEvery {
				return false
			}
			e.m.scatterUngated.Inc()
			dropped = true
			return true
		})
	}
	return dropped
}

// onReport takes a receiver's progress report: it moves the member's gate
// in the object's scatter and sends at once what that makes room for. A
// report with a body is a completion report, and also says what the
// scatter failed to deliver.
func (e *Engine) onReport(from id.Node, msg *wire.Message) {
	if len(msg.Body) > 0 {
		e.noteLoss(from, msg)
	}
	moved := false
	now := e.env.Now()
	for i := range e.scatters {
		sc := &e.scatters[i]
		o := e.objects[sc.obj]
		if sc.obj != msg.Seq || o == nil {
			continue
		}
		// The position is clamped rather than checked: a receiver that
		// decoded the last generation early reports the whole object seen
		// before the origin has sent all of it.
		seen := sc.total
		if p := (msg.Aux>>32)*uint64(o.man.K+o.man.R) + msg.Aux&0xffffffff; p < uint64(sc.total) {
			seen = int(p)
		}
		for j := range sc.gates {
			if g := &sc.gates[j]; g.member == from && seen > g.seen {
				g.seen, g.at = seen, now
				moved = true
			}
		}
	}
	if moved {
		e.m.reportsRx.Inc()
		e.pumpScatter(now)
	}
}

// noteLoss records a member's completion report for an object this node
// published, unless the member has already reported on a later one. The
// body is the count of data symbols the scatter did not deliver; a body
// that is not exactly such a count reads as loss, so only a well-formed
// zero can take r to zero.
func (e *Engine) noteLoss(from id.Node, msg *wire.Message) {
	o := e.objects[msg.Seq]
	if o == nil || o.man.Origin != e.env.Self() || from == o.man.Origin {
		return
	}
	if _, member := slices.BinarySearch(e.members, from); !member {
		return
	}
	if l, ok := e.losses[from]; ok && l.pub > o.pub {
		return
	}
	lossy := len(msg.Body) != 4 || binary.BigEndian.Uint32(msg.Body) != 0
	e.losses[from] = lossReport{pub: o.pub, lossy: lossy}
}

// insert registers an object, evicting the oldest completed object
// beyond the retention cap.
func (e *Engine) insert(objID uint64, o *object) {
	e.objects[objID] = o
	e.order = append(e.order, objID)
	if len(e.order) <= e.cfg.MaxObjects {
		return
	}
	// Prefer evicting the oldest completed object; an incomplete
	// transfer is only sacrificed when nothing completed remains.
	victim := -1
	for i, oid := range e.order {
		if e.objects[oid].complete {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
	}
	delete(e.objects, e.order[victim])
	e.order = append(e.order[:victim], e.order[victim+1:]...)
}

// relayOf returns the member designated to re-fan symbol (gen, idx):
// the scatter stripes symbols round-robin over the sorted membership
// minus the origin, which already transmits every symbol once.
func (e *Engine) relayOf(man Manifest, gen, idx int) id.Node {
	peers := 0
	for _, m := range e.members {
		if m != man.Origin {
			peers++
		}
	}
	if peers == 0 {
		return id.None
	}
	want := (gen*(man.K+man.R) + idx) % peers
	for _, m := range e.members {
		if m == man.Origin {
			continue
		}
		if want == 0 {
			return m
		}
		want--
	}
	return id.None
}

// sendSym transmits one symbol. Aux packs generation<<32|index.
func (e *Engine) sendSym(to id.Node, man Manifest, gen, idx int, payload []byte, flags uint8) {
	if idx >= man.K {
		e.m.repairSent.Inc()
	}
	e.out = wire.Message{
		Kind:   wire.KindBulkSym,
		Flags:  flags,
		Group:  e.cfg.Group,
		Sender: man.Origin,
		Seq:    man.Object,
		Aux:    uint64(gen)<<32 | uint64(idx),
		Body:   payload,
	}
	e.env.Send(to, &e.out)
}

// fan re-distributes a symbol this node is responsible for. wide relays
// fan to the whole group (or, under a relay plan, to their own cluster
// plus the remote coordinators, flagged for local re-fan); coordinators
// re-fanning a FlagBulkFan symbol fan only their own cluster.
func (e *Engine) fan(man Manifest, gen, idx int, payload []byte, wide bool) {
	self := e.env.Self()
	if e.cfg.RelayPlan != nil {
		local, remote := e.cfg.RelayPlan()
		if len(local) > 0 || len(remote) > 0 {
			for _, m := range local {
				if m != self && m != man.Origin {
					e.sendSym(m, man, gen, idx, payload, 0)
				}
			}
			if wide {
				for _, m := range remote {
					if m != self && m != man.Origin {
						e.sendSym(m, man, gen, idx, payload, wire.FlagBulkFan)
					}
				}
			}
			return
		}
	}
	if !wide {
		return
	}
	for _, m := range e.members {
		if m != self && m != man.Origin {
			e.sendSym(m, man, gen, idx, payload, 0)
		}
	}
}

// OnManifest begins collecting a scattered object described by a manifest
// received on the reliable channel. Symbols that beat the manifest here
// are replayed from the stash; what the scatter leaves missing is pulled
// once it has gone quiet. Already-known objects are ignored.
func (e *Engine) OnManifest(man Manifest) { e.begin(man, false) }

// Pull begins fetching an object nobody scatters (a state-transfer
// snapshot): the request window opens at once instead of waiting for a
// scatter to go quiet.
func (e *Engine) Pull(man Manifest) { e.begin(man, true) }

func (e *Engine) begin(man Manifest, pull bool) {
	if err := man.Validate(); err != nil {
		return
	}
	if man.Origin == e.env.Self() {
		return
	}
	now := e.env.Now()
	o, exists := e.objects[man.Object]
	if !exists {
		rs, err := fec.NewRS(man.K, man.R)
		if err != nil {
			return
		}
		o = &object{
			man:        man,
			rs:         rs,
			gens:       make([]generation, man.Generations()),
			began:      now,
			sources:    make(map[id.Node]bool),
			quiet:      now.Add(RequestEvery),
			reportedAt: now,
		}
		w := man.K + man.R
		tables := make([][]byte, len(o.gens)*w)
		for g := range o.gens {
			o.gens[g].shards = tables[g*w : (g+1)*w : (g+1)*w]
		}
		e.insert(man.Object, o)
		e.replayStash(o)
	}
	if pull && !o.complete && !o.pulling {
		o.pulling, o.quiet = true, now
		e.refreshNear()
		e.pump(o, now)
	}
}

// Object returns a completed object's data.
func (e *Engine) Object(objID uint64) ([]byte, bool) {
	o, ok := e.objects[objID]
	if !ok || !o.complete {
		return nil, false
	}
	return o.data, true
}

// Progress returns a transfer's generation counts.
func (e *Engine) Progress(objID uint64) (done, total int, ok bool) {
	o, okObj := e.objects[objID]
	if !okObj {
		return 0, 0, false
	}
	return o.doneGens, len(o.gens), true
}

// Evict drops a retained object.
func (e *Engine) Evict(objID uint64) {
	if _, ok := e.objects[objID]; !ok {
		return
	}
	delete(e.objects, objID)
	for i, oid := range e.order {
		if oid == objID {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// OnMessage handles the symbol plane. The engine keeps the bodies of the
// symbols it stores (and whole messages in the stash): the runtime hands
// each inbound message over for good.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Group != e.cfg.Group {
		return
	}
	switch msg.Kind {
	case wire.KindBulkSym:
		e.m.symbolsRx.Inc()
		if o, ok := e.objects[msg.Seq]; ok {
			e.onSymbol(o, from, msg)
		} else {
			e.stashSymbol(from, msg)
		}
	case wire.KindBulkReq:
		if msg.Flags&wire.FlagBulkReport != 0 {
			e.onReport(from, msg)
		} else {
			e.onRequest(from, msg)
		}
	}
}

// stashSymbol keeps a symbol whose manifest has not arrived, within the
// stash's byte cap; past the cap the symbol is dropped and the pull path
// fetches it later.
func (e *Engine) stashSymbol(from id.Node, msg *wire.Message) {
	s := stashed{from: from, msg: msg}
	if len(msg.Body) == 0 || e.stashBytes+s.cost() > stashCapBytes {
		return
	}
	s.at = e.env.Now()
	e.stash = append(e.stash, s)
	e.stashBytes += s.cost()
	e.m.symbolsStashed.Inc()
}

// replayStash feeds the stashed symbols of a newly announced object
// through onSymbol, in arrival order.
func (e *Engine) replayStash(o *object) {
	var mine []stashed
	kept := e.stash[:0]
	for _, s := range e.stash {
		if s.msg.Seq == o.man.Object {
			mine = append(mine, s)
			e.stashBytes -= s.cost()
		} else {
			kept = append(kept, s)
		}
	}
	e.trimStash(kept)
	for _, s := range mine {
		e.onSymbol(o, s.from, s.msg)
	}
}

// expireStash drops stashed symbols older than stashMaxAge.
func (e *Engine) expireStash(now time.Time) {
	n := 0
	for n < len(e.stash) && now.Sub(e.stash[n].at) >= stashMaxAge {
		e.stashBytes -= e.stash[n].cost()
		n++
	}
	if n > 0 {
		e.trimStash(e.stash[:copy(e.stash, e.stash[n:])])
	}
}

// trimStash installs kept (a prefix of the stash's backing array) as the
// stash and releases the messages behind it.
func (e *Engine) trimStash(kept []stashed) {
	for i := len(kept); i < len(e.stash); i++ {
		e.stash[i] = stashed{}
	}
	e.stash = kept
}

// onSymbol takes one arriving coded symbol of a known object: it re-fans
// the symbol when this node is its designated distributor, stores it when
// it is still needed, and keeps the pull window moving.
func (e *Engine) onSymbol(o *object, from id.Node, msg *wire.Message) {
	gen, idx := int(msg.Aux>>32), int(msg.Aux&0xffffffff)
	if gen >= len(o.gens) || idx >= o.man.K+o.man.R {
		return
	}
	if len(msg.Body) == 0 {
		e.onNotHeld(o, from, gen, idx)
		return
	}
	if len(msg.Body) != o.man.SymbolSize {
		return
	}
	g := &o.gens[gen]
	// Relay duty comes first and does not depend on local progress: a
	// flagged symbol makes this node the distributor — group-wide when it
	// came straight from the origin, own-cluster only when a relay
	// forwarded it for local re-fan — exactly once, needed here or not.
	if msg.Flags&wire.FlagBulkFan != 0 && !g.fanned.has(idx) {
		g.fanned.add(idx)
		e.m.symbolsFanned.Inc()
		e.fan(o.man, gen, idx, msg.Body, from == o.man.Origin)
	}
	if o.complete {
		e.m.symbolsDup.Inc()
		return
	}
	now := e.env.Now()
	if !o.sources[from] {
		o.sources[from] = true
	}
	solicited := g.asked.has(idx)
	if !solicited && idx < o.man.K {
		g.got.add(idx)
	}
	if solicited {
		e.settle(o, gen, idx)
	} else if p := gen*(o.man.K+o.man.R) + idx + 1; p > o.top {
		// The scatter is still landing, and this is how far it has come:
		// hold the pull back. (A late second answer to a request is
		// unsolicited too, but lands below top and holds nothing back.)
		o.top = p
		o.quiet = now.Add(RequestEvery)
	}
	if g.done || g.shards[idx] != nil {
		e.m.symbolsDup.Inc()
	} else {
		g.shards[idx] = msg.Body
		g.have++
		if idx < o.man.K {
			g.data++
		}
		switch {
		case g.data == o.man.K || (g.have >= o.man.K && (solicited || o.pulling)):
			e.reconstruct(o, gen)
		case g.have >= o.man.K:
			// Any k symbols decode the generation, but while a scatter is
			// landing the missing data symbols are usually a few datagrams
			// behind: waiting for them costs nothing, decoding around them
			// costs k multiply-adds per rebuilt symbol, and how many need
			// rebuilding would depend on arrival order. The next tick
			// decodes whatever is still short by then.
			o.ripe = true
		}
	}
	if solicited || g.done {
		e.pump(o, now)
	}
	if !o.complete && (o.top-o.reported)*o.man.SymbolSize >= e.window/scatterReportsPerWindow {
		e.report(o, now, nil)
	}
}

// report tells the origin how far its scatter has reached this node; body
// is empty but for the completion report.
func (e *Engine) report(o *object, now time.Time, body []byte) {
	w := o.man.K + o.man.R
	o.reported, o.reportedAt = o.top, now
	e.out = wire.Message{
		Kind:  wire.KindBulkReq,
		Flags: wire.FlagBulkReport,
		Group: e.cfg.Group,
		Seq:   o.man.Object,
		Aux:   uint64(o.top/w)<<32 | uint64(o.top%w),
		Body:  body,
	}
	e.env.Send(o.man.Origin, &e.out)
	e.m.reportsSent.Inc()
}

// reconstruct decodes one generation from any K held symbols, verifies
// it against the manifest hash, and completes the object when it was the
// last generation outstanding.
func (e *Engine) reconstruct(o *object, gen int) {
	g := &o.gens[gen]
	if err := o.rs.Reconstruct(g.shards); err != nil {
		return
	}
	if genHash(g.shards, o.man.K) != o.man.GenHashes[gen] {
		// Corrupt reconstruction: discard the generation and re-pull.
		for i := range g.shards {
			g.shards[i] = nil
		}
		g.have, g.data = 0, 0
		return
	}
	// Keep the data symbols (to serve peer requests); the repair symbols
	// have done their job, and so have the requests still out for this
	// generation.
	for i := o.man.K; i < len(g.shards); i++ {
		g.shards[i] = nil
	}
	g.have, g.data = o.man.K, o.man.K
	g.done = true
	if g.asked != (symSet{}) {
		kept := o.out[:0]
		for _, r := range o.out {
			if r.gen != gen {
				kept = append(kept, r)
			}
		}
		o.out = kept
		g.asked = symSet{}
	}
	o.doneGens++
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(Progress{ID: o.man.Object, Origin: o.man.Origin, Done: o.doneGens, Total: len(o.gens)})
	}
	if o.doneGens == len(o.gens) {
		e.assemble(o)
	}
}

// assemble concatenates the decoded generations into the final object.
func (e *Engine) assemble(o *object) {
	data := make([]byte, 0, int(o.man.Size))
	for g := range o.gens {
		for i := 0; i < o.man.K; i++ {
			data = append(data, o.gens[g].shards[i]...)
		}
	}
	o.data = data[:o.man.Size]
	o.complete = true
	o.out, o.sources = nil, nil
	now := e.env.Now()
	e.m.objectsCompleted.Inc()
	e.m.transferMs.Observe(float64(now.Sub(o.began)) / float64(time.Millisecond))
	if o.top > 0 {
		// A scatter reached this node: whatever of it is still to come, or
		// was lost, no longer needs room here. The body tells the origin
		// how many data symbols the scatter did not deliver.
		missed := o.man.K * len(o.gens)
		for g := range o.gens {
			missed -= o.gens[g].got.len()
		}
		o.top = len(o.gens) * (o.man.K + o.man.R)
		e.report(o, now, binary.BigEndian.AppendUint32(nil, uint32(missed)))
	}
	if e.cfg.OnObject != nil {
		e.cfg.OnObject(Object{ID: o.man.Object, Origin: o.man.Origin, Data: o.data})
	}
}

// onRequest serves a symbol this node holds, and says so when it holds
// none: the body-less reply costs the requester one round trip where
// silence would cost it a timeout.
func (e *Engine) onRequest(from id.Node, msg *wire.Message) {
	gen, idx := int(msg.Aux>>32), int(msg.Aux&0xffffffff)
	if o, ok := e.objects[msg.Seq]; ok && gen < len(o.gens) && idx < o.man.K+o.man.R {
		if shard := o.gens[gen].shards[idx]; shard != nil {
			e.m.requestsServed.Inc()
			e.sendSym(from, o.man, gen, idx, shard, 0)
			return
		}
	}
	e.m.requestsUnservable.Inc()
	e.out = wire.Message{Kind: wire.KindBulkSym, Group: e.cfg.Group, Seq: msg.Seq, Aux: msg.Aux}
	e.env.Send(from, &e.out)
}

// onNotHeld handles a peer's answer that it does not hold a requested
// symbol: the request moves to its next-ranked target at once. Once every
// candidate has been tried the request waits out its timeout instead, so
// a symbol nobody holds is asked for at the timeout's pace, not the
// network's.
func (e *Engine) onNotHeld(o *object, from id.Node, gen, idx int) {
	if o.complete {
		return
	}
	if i := o.outstanding(gen, idx); i >= 0 {
		if r := &o.out[i]; r.target == from && r.attempt+1 < len(e.rank(o, gen, idx)) {
			e.retarget(o, r, e.env.Now())
		}
	}
}

// OnTick does what no arrival can: it times silent members out of a shut
// scatter window, decodes the generations that held k symbols but waited
// for their data symbols in vain, reports slow scatter progress, opens the
// pull of a scattered object whose scatter has gone quiet, moves every
// request unanswered for RequestEvery to its next target, and ages the
// stash.
func (e *Engine) OnTick(now time.Time) {
	e.pumpScatter(now)
	refreshed := false
	for _, objID := range e.order {
		o := e.objects[objID]
		if o == nil || o.complete {
			continue
		}
		if o.ripe {
			o.ripe = false
			for gen := range o.gens {
				if g := &o.gens[gen]; !g.done && g.have >= o.man.K {
					e.reconstruct(o, gen)
				}
			}
		}
		if o.complete {
			continue
		}
		if o.top > o.reported && now.Sub(o.reportedAt) >= RequestEvery/2 {
			e.report(o, now, nil)
		}
		if !o.pulling && now.Before(o.quiet) {
			continue
		}
		if !refreshed {
			// Distance estimates (the AutoHier RTT matrix) fill in over
			// time; re-rank the pull-target preference once per tick
			// rather than per symbol.
			e.refreshNear()
			refreshed = true
		}
		for i := range o.out {
			if r := &o.out[i]; !now.Before(r.deadline) {
				e.m.requestsTimedOut.Inc()
				e.retarget(o, r, now)
			}
		}
		o.pulling = true
		e.pump(o, now)
	}
	e.expireStash(now)
}

// refreshNear rebuilds the nearest-first pull-target ranking: every
// member (excluding self) with a known distance estimate, sorted by
// (distance, id) so the order is deterministic. Members without an
// estimate are left to the rotation fallback.
func (e *Engine) refreshNear() {
	e.near = e.near[:0]
	if e.cfg.Distance == nil {
		return
	}
	self := e.env.Self()
	dist := make(map[id.Node]time.Duration, len(e.members))
	for _, m := range e.members {
		if m == self {
			continue
		}
		if d := e.cfg.Distance(m); d > 0 {
			dist[m] = d
			e.near = append(e.near, m)
		}
	}
	sort.Slice(e.near, func(i, j int) bool {
		di, dj := dist[e.near[i]], dist[e.near[j]]
		if di != dj {
			return di < dj
		}
		return e.near[i] < e.near[j]
	})
}

// pump fills a pulling object's request window: for each unfinished
// generation, in order, it asks for as many missing data symbols as the
// generation still needs beyond what it holds and has already asked for.
// Only data symbols are requested: any completed peer holds all of them,
// while repair symbols survive only where the scatter put them.
func (e *Engine) pump(o *object, now time.Time) {
	if !o.pulling || o.complete || now.Before(o.quiet) {
		return
	}
	for o.cursor < len(o.gens) && o.gens[o.cursor].done {
		o.cursor++
	}
	k := o.man.K
	for gi := o.cursor; gi < len(o.gens) && len(o.out) < e.cfg.MaxRequests; gi++ {
		g := &o.gens[gi]
		if g.done {
			continue
		}
		need := k - g.have - g.asked.len()
		for i := 0; i < k && need > 0 && len(o.out) < e.cfg.MaxRequests; i++ {
			if g.shards[i] != nil || g.asked.has(i) {
				continue
			}
			target := e.sendReq(o, gi, i, 0)
			if target == id.None {
				return // nobody to ask
			}
			g.asked.add(i)
			o.out = append(o.out, request{gen: gi, idx: i, target: target, deadline: now.Add(RequestEvery)})
			need--
		}
	}
}

// outstanding returns the position in out of the request for (gen, idx),
// or -1.
func (o *object) outstanding(gen, idx int) int {
	for i, r := range o.out {
		if r.gen == gen && r.idx == idx {
			return i
		}
	}
	return -1
}

// settle retires the outstanding request a symbol answers.
func (e *Engine) settle(o *object, gen, idx int) {
	o.gens[gen].asked.del(idx)
	if i := o.outstanding(gen, idx); i >= 0 {
		o.out = append(o.out[:i], o.out[i+1:]...)
	}
}

// retarget re-sends an outstanding request to its next-ranked target.
func (e *Engine) retarget(o *object, r *request, now time.Time) {
	r.attempt++
	r.deadline = now.Add(RequestEvery)
	r.target = e.sendReq(o, r.gen, r.idx, r.attempt)
}

// sendReq asks the attempt-th ranked target (wrapping) for one symbol and
// returns it; id.None means there is nobody to ask.
func (e *Engine) sendReq(o *object, gen, idx, attempt int) id.Node {
	c := e.rank(o, gen, idx)
	if len(c) == 0 {
		return id.None
	}
	target := c[attempt%len(c)]
	e.out = wire.Message{
		Kind:  wire.KindBulkReq,
		Group: e.cfg.Group,
		Seq:   o.man.Object,
		Aux:   uint64(gen)<<32 | uint64(idx),
	}
	e.env.Send(target, &e.out)
	e.m.requestsSent.Inc()
	return target
}

// nearWindow bounds how many of the nearest peers the rotation phase
// draws from: near enough to keep pulls cheap, wide enough that receivers
// missing the same symbol don't all dogpile the single nearest holder.
const nearWindow = 4

// rank lists the peers worth asking for a symbol, best first: those that
// can be expected to hold it — the designated relay, once it has been
// seen sourcing this object (it never has for an object nobody
// scattered), then the origin — and then the rest, peers already seen
// sourcing the object ahead of the others. The rest is the nearest peers
// by the distance estimate (AutoHier RTT matrix) or, with no estimates,
// the whole membership; it is rotated by symbol and requester so that
// receivers missing the same symbol spread over different servers. The
// result is scratch, valid until the next call.
func (e *Engine) rank(o *object, gen, idx int) []id.Node {
	self, origin := e.env.Self(), o.man.Origin
	c := e.cands[:0]
	relay := e.relayOf(o.man, gen, idx)
	if relay == self || !o.sources[relay] {
		relay = id.None
	}
	if relay != id.None {
		c = append(c, relay)
	}
	if origin != self {
		c = append(c, origin)
	}
	rest := e.members
	if len(e.near) > 0 {
		rest = e.near
		if len(rest) > nearWindow {
			rest = rest[:nearWindow]
		}
	}
	if n := len(rest); n > 0 {
		start := int((uint64(gen) + uint64(idx) + uint64(self)) % uint64(n))
		for _, sourcing := range [2]bool{true, false} {
			for j := 0; j < n; j++ {
				m := rest[(start+j)%n]
				if m != self && m != origin && m != relay && o.sources[m] == sourcing {
					c = append(c, m)
				}
			}
		}
	}
	e.cands = c
	return c
}
