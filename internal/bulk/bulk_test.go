package bulk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		Object:     0xdeadbeef,
		Size:       3*16*1024 - 100,
		Origin:     7,
		SymbolSize: 1024,
		K:          16,
		R:          4,
		GenHashes:  []uint64{1, 2, 3},
	}
	got, err := DecodeManifest(AppendManifest(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != m.Object || got.Size != m.Size || got.Origin != m.Origin ||
		got.SymbolSize != m.SymbolSize || got.K != m.K || got.R != m.R ||
		len(got.GenHashes) != 3 || got.GenHashes[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestManifestRejectsMalformed(t *testing.T) {
	good := Manifest{Object: 1, Size: 100, Origin: 2, SymbolSize: 64, K: 4, R: 2, GenHashes: []uint64{9}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Manifest{
		{Object: 1, Size: 100, SymbolSize: 64, K: 0, R: 2, GenHashes: []uint64{9}},
		{Object: 1, Size: 100, SymbolSize: 0, K: 4, R: 2, GenHashes: []uint64{9}},
		{Object: 1, Size: 100, SymbolSize: 64, K: 4, R: 2},                          // no generations
		{Object: 1, Size: 9999, SymbolSize: 64, K: 4, R: 2, GenHashes: []uint64{9}}, // size overflows layout
		{Object: 1, Size: 100, SymbolSize: 64, K: 200, R: 100, GenHashes: []uint64{9}},
	}
	for i, m := range cases {
		if err := m.Validate(); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: err = %v, want ErrBadManifest", i, err)
		}
		if _, err := DecodeManifest(AppendManifest(nil, m)); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: decode err = %v, want ErrBadManifest", i, err)
		}
	}
	if _, err := DecodeManifest([]byte{1, 2, 3}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("short decode err = %v", err)
	}
}

// fleet drives N bulk engines over netsim, each knowing the full
// membership — the shape core gives the engine after a view install.
type fleet struct {
	sim       *netsim.Sim
	nodes     []id.Node
	engines   map[id.Node]*Engine
	objects   map[id.Node][]Object
	doneAt    map[id.Node]time.Duration // virtual time of each node's latest completion
	manifests map[uint64]Manifest       // as Publish returned them
	symsSent  map[id.Node]int           // symbols (with a body) each node sent
	// drop, when set, loses the datagrams it returns true for on their way
	// into node to.
	drop func(to id.Node, msg *wire.Message) bool
}

// fleetEnv counts the symbols a fleet node sends.
type fleetEnv struct {
	proto.Env
	f *fleet
}

func (v fleetEnv) Send(to id.Node, m *wire.Message) {
	if m.Kind == wire.KindBulkSym && len(m.Body) > 0 {
		v.f.symsSent[v.Self()]++
	}
	v.Env.Send(to, m)
}

// fleetNode hands a fleet node's inbound datagrams to its engine, minus
// those the fleet's drop loses.
type fleetNode struct {
	*Engine
	f *fleet
}

func (h fleetNode) OnMessage(from id.Node, msg *wire.Message) {
	if h.f.drop != nil && h.f.drop(h.env.Self(), msg) {
		return
	}
	h.Engine.OnMessage(from, msg)
}

func newFleet(t *testing.T, n int, seed int64, profile netsim.Profile, cfg Config) *fleet {
	t.Helper()
	f := &fleet{
		sim:       netsim.New(netsim.Config{Seed: seed, Profile: profile}),
		engines:   make(map[id.Node]*Engine),
		objects:   make(map[id.Node][]Object),
		doneAt:    make(map[id.Node]time.Duration),
		manifests: make(map[uint64]Manifest),
		symsSent:  make(map[id.Node]int),
	}
	for i := 1; i <= n; i++ {
		f.nodes = append(f.nodes, id.Node(i))
	}
	for _, node := range f.nodes {
		node := node
		c := cfg
		c.OnObject = func(o Object) {
			f.objects[node] = append(f.objects[node], o)
			f.doneAt[node] = f.sim.Elapsed()
		}
		f.sim.AddNode(node, func(env proto.Env) proto.Handler {
			e := New(fleetEnv{env, f}, c)
			f.engines[node] = e
			return fleetNode{e, f}
		})
	}
	for _, e := range f.engines {
		e.SetMembers(f.nodes)
	}
	return f
}

// publish has the origin publish at t=10ms and hands the manifest to
// every other engine, as the reliable control channel would: ahead of the
// scatter, or — for an object nobody scatters — as a Pull.
func (f *fleet) publish(t *testing.T, origin id.Node, objID uint64, data []byte, scatter bool) {
	t.Helper()
	f.publishAt(t, 10*time.Millisecond, origin, objID, data, scatter)
}

// publishAt is publish at virtual time at.
func (f *fleet) publishAt(t *testing.T, at time.Duration, origin id.Node, objID uint64, data []byte, scatter bool) {
	t.Helper()
	f.sim.At(at, func() {
		man, err := f.engines[origin].Publish(objID, data)
		if err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		f.manifests[objID] = man
		for _, node := range f.nodes {
			if node == origin {
				continue
			}
			if scatter {
				f.engines[node].OnManifest(man)
			} else {
				f.engines[node].Pull(man)
			}
		}
		if scatter {
			f.engines[origin].Scatter(objID)
		}
	})
}

func (f *fleet) assertAllComplete(t *testing.T, objID uint64, want []byte, skip map[id.Node]bool) {
	t.Helper()
	for _, node := range f.nodes {
		if skip[node] {
			continue
		}
		got, ok := f.engines[node].Object(objID)
		if !ok {
			done, total, _ := f.engines[node].Progress(objID)
			t.Fatalf("node %s incomplete: %d/%d generations", node, done, total)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %s object mismatch: %d bytes", node, len(got))
		}
	}
}

func testObject(size int, seed int64) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestScatterDisseminates(t *testing.T) {
	const n = 16
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, n, 1, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	data := testObject(20_000, 42)
	f.publish(t, 1, 7, data, true)
	f.sim.Run(3 * time.Second)
	f.assertAllComplete(t, 7, data, nil)

	// The scatter must actually spread transmission: with 16 members the
	// origin sends each symbol once, so its bytes stay well under the
	// flat-multicast sender cost of F·(n-1).
	stats := f.sim.Stats()
	origin := stats.SentBytesByNode[id.Node(1)]
	flat := uint64(len(data)) * (n - 1)
	if origin > flat/4 {
		t.Fatalf("origin transmitted %d bytes, want well under flat %d", origin, flat)
	}
}

// TestPullWithoutScatter exercises the state-transfer shape: the object
// is registered at the origin only, and receivers pull every symbol via
// requests.
func TestPullWithoutScatter(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 2, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	data := testObject(10_000, 43)
	f.publish(t, 2, 9, data, false)
	f.sim.Run(5 * time.Second)
	f.assertAllComplete(t, 9, data, nil)
}

// TestPullSelfClocked pins the pull path's pace and waste on the state-
// transfer shape at full size: 1 MiB nobody scatters, three receivers, a
// 1 ms LAN. The window refills on every reply, so the transfer takes about
// one round trip per MaxRequests symbols, not one RequestEvery; and
// requests go where the symbol can be (here: the origin, the only node
// ever seen sourcing it, then peers that decoded it), so hardly more
// datagrams move than a request and a reply per needed symbol.
func TestPullSelfClocked(t *testing.T) {
	f := newFleet(t, 4, 2, netsim.LANProfile(time.Millisecond, 0, 0), Config{Group: 1})
	data := testObject(1<<20, 46)
	f.publish(t, 1, 9, data, false)
	f.sim.Run(2 * time.Second)
	f.assertAllComplete(t, 9, data, nil)
	for _, node := range f.nodes[1:] {
		if took := f.doneAt[node] - 10*time.Millisecond; took > 250*time.Millisecond {
			t.Errorf("node %s completed %v after the publish, want <= 250ms", node, took)
		}
	}
	stats := f.sim.Stats()
	sent := stats.TotalSent()
	t.Logf("completed at %v, %d datagrams", f.doneAt, sent)
	if sent > 6500 {
		t.Errorf("%d datagrams for 3 x 1024 needed symbols, want <= 6500", sent)
	}
}

func TestLossRecovered(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 12, 3, netsim.LANProfile(time.Millisecond, 200*time.Microsecond, 0.05), cfg)
	data := testObject(30_000, 44)
	f.publish(t, 3, 11, data, true)
	f.sim.Run(10 * time.Second)
	f.assertAllComplete(t, 11, data, nil)
}

func TestPublishValidation(t *testing.T) {
	f := newFleet(t, 2, 4, nil, Config{Group: 1})
	e := f.engines[1]
	if _, err := e.Publish(1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("empty publish err = %v", err)
	}
	data := []byte("state snapshot")
	man, err := e.Publish(1, data)
	if err != nil {
		t.Fatal(err)
	}
	// Republishing identical bytes is idempotent (state re-offered to a
	// later joiner); different bytes under the same ID is refused.
	if again, err := e.Publish(1, data); err != nil || again.Object != man.Object {
		t.Fatalf("idempotent republish: %v", err)
	}
	if _, err := e.Publish(1, []byte("different")); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("conflicting republish err = %v", err)
	}
}

func TestProgressEvents(t *testing.T) {
	var progress []Progress
	cfg := Config{Group: 1, SymbolSize: 128, DataShards: 4, RepairShards: 2}
	f := newFleet(t, 3, 5, nil, cfg)
	f.engines[2] = nil // rebuild node 2 with a progress hook
	c := cfg
	c.OnProgress = func(p Progress) { progress = append(progress, p) }
	f.sim.Replace(2, func(env proto.Env) proto.Handler {
		e := New(env, c)
		f.engines[2] = e
		e.SetMembers(f.nodes)
		return e
	})
	data := testObject(3*4*128, 45) // exactly 3 generations
	f.publish(t, 1, 5, data, true)
	f.sim.Run(3 * time.Second)
	if got, ok := f.engines[2].Object(5); !ok || !bytes.Equal(got, data) {
		t.Fatal("node 2 incomplete")
	}
	if len(progress) != 3 {
		t.Fatalf("progress events = %d, want 3", len(progress))
	}
	last := progress[len(progress)-1]
	if last.Done != 3 || last.Total != 3 || last.ID != 5 || last.Origin != 1 {
		t.Fatalf("final progress = %+v", last)
	}
}

func TestEvictionBoundsObjects(t *testing.T) {
	f := newFleet(t, 1, 6, nil, Config{Group: 1, MaxObjects: 3, SymbolSize: 64, DataShards: 2, RepairShards: 1})
	e := f.engines[1]
	for i := uint64(1); i <= 5; i++ {
		if _, err := e.Publish(i, testObject(200, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.objects) != 3 {
		t.Fatalf("retained %d objects, cap 3", len(e.objects))
	}
	if _, ok := e.Object(1); ok {
		t.Fatal("oldest object not evicted")
	}
	if _, ok := e.Object(5); !ok {
		t.Fatal("newest object evicted")
	}
}

func TestPullTargetRanking(t *testing.T) {
	// Distances: node 2 nearest, then 3, then 4; nodes 5..8 unknown (0).
	dist := map[id.Node]time.Duration{
		2: 2 * time.Millisecond,
		3: 5 * time.Millisecond,
		4: 9 * time.Millisecond,
	}
	e := New(&recEnv{self: 1}, Config{
		Group:    1,
		Distance: func(n id.Node) time.Duration { return dist[n] },
	})
	e.SetMembers([]id.Node{1, 2, 3, 4, 5, 6, 7, 8})
	e.refreshNear()
	if len(e.near) != 3 || e.near[0] != 2 || e.near[1] != 3 || e.near[2] != 4 {
		t.Fatalf("near = %v, want [2 3 4]", e.near)
	}

	// Nobody has been seen sourcing the object (nothing scattered it): the
	// origin is asked first, and every later attempt draws from the near
	// set, never from the unmeasured rest of the membership.
	o := &object{man: Manifest{Object: 1, Origin: 9, K: 4, R: 2}, sources: map[id.Node]bool{}}
	c := e.rank(o, 0, 0)
	if len(c) != 4 || c[0] != 9 {
		t.Fatalf("ranking = %v, want the origin then the three near peers", c)
	}
	nearSet := map[id.Node]bool{2: true, 3: true, 4: true}
	picked := map[id.Node]bool{}
	for _, m := range c[1:] {
		if !nearSet[m] {
			t.Fatalf("ranked target %s is not a near peer", m)
		}
		picked[m] = true
	}
	if len(picked) != 3 {
		t.Fatalf("ranking repeats a near peer: %v", c)
	}

	// Once the designated relay has been seen sourcing the object it
	// outranks the origin, and a sourcing peer outranks the silent ones.
	const idx = 2
	relay := e.relayOf(o.man, 0, idx)
	if relay != 3 {
		t.Fatalf("relay of symbol %d = %s, want n3", idx, relay)
	}
	o.sources[relay] = true
	o.sources[4] = true
	if c := e.rank(o, 0, idx); len(c) != 4 || c[0] != relay || c[1] != 9 || c[2] != 4 || c[3] != 2 {
		t.Fatalf("ranking = %v, want [%s n9 n4 n2]", c, relay)
	}

	// No distance knowledge: the near set is empty and the rotation covers
	// the whole membership, spread by symbol so that one requester's
	// symbols do not all land on one server.
	e2 := New(&recEnv{self: 1}, Config{Group: 1})
	e2.SetMembers([]id.Node{1, 2, 3, 4, 5, 6, 7, 8})
	e2.refreshNear()
	if len(e2.near) != 0 {
		t.Fatalf("near without Distance = %v, want empty", e2.near)
	}
	o2 := &object{man: Manifest{Object: 1, Origin: 9, K: 4, R: 2}, sources: map[id.Node]bool{}}
	picked = map[id.Node]bool{}
	for idx := 0; idx < 4; idx++ {
		c := e2.rank(o2, 0, idx)
		if len(c) != 8 || c[0] != 9 || c[1] == 1 {
			t.Fatalf("symbol %d: fallback ranking %v", idx, c)
		}
		picked[c[1]] = true
	}
	if len(picked) < 3 {
		t.Fatalf("fallback rotation visited only %v", picked)
	}
}

// symbolMsg builds the datagram the origin (or a relay) sends for one
// symbol of a published object.
func symbolMsg(e *Engine, objID uint64, gen, idx int, flags uint8) *wire.Message {
	o := e.objects[objID]
	return &wire.Message{
		Kind: wire.KindBulkSym, Flags: flags, Group: e.cfg.Group,
		Sender: o.man.Origin, Seq: objID,
		Aux:  uint64(gen)<<32 | uint64(idx),
		Body: o.gens[gen].shards[idx],
	}
}

// recEnv is a proto.Env that records what an engine sends.
type recEnv struct {
	self id.Node
	now  time.Time
	sent []sentMsg
}

type sentMsg struct {
	to        id.Node
	kind      wire.Kind
	flags     uint8
	obj, aux  uint64
	bodyBytes int
}

func (r *recEnv) Self() id.Node  { return r.self }
func (r *recEnv) Now() time.Time { return r.now }
func (r *recEnv) Send(to id.Node, m *wire.Message) {
	r.sent = append(r.sent, sentMsg{to, m.Kind, m.Flags, m.Seq, m.Aux, len(m.Body)})
}

// count returns how many datagrams of a kind were sent; progress reports,
// which share KindBulkReq with symbol requests, are not counted as either.
func (r *recEnv) count(kind wire.Kind) int {
	n := 0
	for _, s := range r.sent {
		if s.kind == kind && s.flags&wire.FlagBulkReport == 0 {
			n++
		}
	}
	return n
}

// TestSymbolsBeforeManifest delivers a whole scatter ahead of its
// manifest: the stash must hold it, the manifest must replay it through
// the normal path, and the object must complete without a single request.
func TestSymbolsBeforeManifest(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	members := []id.Node{1, 2, 3}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	data := testObject(20_000, 47)
	man, err := origin.Publish(5, data)
	if err != nil {
		t.Fatal(err)
	}

	env := &recEnv{self: 2}
	var got []Object
	c := cfg
	c.OnObject = func(o Object) { got = append(got, o) }
	e := New(env, c)
	e.SetMembers(members)
	for g := range origin.objects[5].gens {
		for i := 0; i < cfg.DataShards+cfg.RepairShards; i++ {
			e.OnMessage(1, symbolMsg(origin, 5, g, i, 0))
		}
	}
	if len(e.objects) != 0 || len(e.stash) == 0 {
		t.Fatalf("before the manifest: %d objects, %d stashed", len(e.objects), len(e.stash))
	}
	e.OnManifest(man)
	if len(got) != 1 || !bytes.Equal(got[0].Data, data) {
		t.Fatalf("object not completed from the stash: %d completions", len(got))
	}
	if len(e.stash) != 0 || e.stashBytes != 0 {
		t.Fatalf("stash not drained: %d entries, %d bytes", len(e.stash), e.stashBytes)
	}
	e.OnTick(time.Time{}.Add(time.Second))
	if n := env.count(wire.KindBulkReq); n != 0 {
		t.Fatalf("%d requests sent for an object the stash completed", n)
	}
}

// TestStashBounded floods an engine with symbols of objects it will never
// hear a manifest for: the stash stays under its cap, and ages out.
func TestStashBounded(t *testing.T) {
	e := New(&recEnv{self: 2}, Config{Group: 1})
	body := make([]byte, 1024)
	for i := 0; i < 4*stashCapBytes/len(body); i++ {
		e.OnMessage(1, &wire.Message{
			Kind: wire.KindBulkSym, Group: 1, Sender: 1,
			Seq: uint64(1000 + i%97), Aux: uint64(i), Body: body,
		})
		if e.stashBytes > stashCapBytes {
			t.Fatalf("stash holds %d bytes after %d symbols, cap %d", e.stashBytes, i+1, stashCapBytes)
		}
	}
	if e.stashBytes < stashCapBytes/2 {
		t.Fatalf("stash holds only %d bytes: the flood should have filled it", e.stashBytes)
	}
	// Tiny symbols are charged for their header, so they cannot pile up
	// without bound either.
	e2 := New(&recEnv{self: 2}, Config{Group: 1})
	for i := 0; i < 2*stashCapBytes/stashEntryCost; i++ {
		e2.OnMessage(1, &wire.Message{Kind: wire.KindBulkSym, Group: 1, Seq: 7, Aux: uint64(i), Body: []byte{1}})
	}
	if e2.stashBytes > stashCapBytes || len(e2.stash) > stashCapBytes/stashEntryCost {
		t.Fatalf("tiny-symbol flood: %d entries, %d bytes", len(e2.stash), e2.stashBytes)
	}
	e.OnTick(time.Time{}.Add(stashMaxAge))
	if len(e.stash) != 0 || e.stashBytes != 0 {
		t.Fatalf("stash after %v: %d entries, %d bytes", stashMaxAge, len(e.stash), e.stashBytes)
	}
}

// TestRelayDutyIndependentOfProgress hands a relay a flagged origin symbol
// of a generation it has already decoded: it must still fan it to the
// other receiver, and exactly once when the symbol is duplicated.
func TestRelayDutyIndependentOfProgress(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 4, RepairShards: 2}
	members := []id.Node{1, 2, 3}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	data := testObject(4*256, 48) // one generation
	man, err := origin.Publish(6, data)
	if err != nil {
		t.Fatal(err)
	}
	env := &recEnv{self: 2}
	e := New(env, cfg)
	e.SetMembers(members)
	e.OnManifest(man)
	for i := 0; i < cfg.DataShards; i++ { // unflagged: decode without any relay duty
		e.OnMessage(3, symbolMsg(origin, 6, 0, i, 0))
	}
	if _, ok := e.Object(6); !ok {
		t.Fatal("relay did not decode from k symbols")
	}
	if n := env.count(wire.KindBulkSym); n != 0 {
		t.Fatalf("unflagged symbols fanned %d times", n)
	}
	flagged := symbolMsg(origin, 6, 0, 5, wire.FlagBulkFan)
	e.OnMessage(1, flagged)
	e.OnMessage(1, flagged)
	if n := env.count(wire.KindBulkSym); n != 1 {
		t.Fatalf("satisfied relay fanned a flagged symbol %d times, want once", n)
	}
	if s := env.sent[len(env.sent)-1]; s.to != 3 || s.flags != 0 || s.aux != 5 || s.bodyBytes != 256 {
		t.Fatalf("fanned datagram = %+v, want symbol 5 to n3 unflagged", s)
	}
}

// TestDecodeWaitsForDataSymbols pins what a generation costs while a
// scatter is landing: k symbols that include a repair symbol do not
// decode at once, because the data symbol still in flight usually follows
// and then nothing needs rebuilding; the next tick decodes a generation
// whose data symbol never came.
func TestDecodeWaitsForDataSymbols(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 4, RepairShards: 2}
	members := []id.Node{1, 2, 3}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	data := testObject(2*4*256, 50) // two generations
	man, err := origin.Publish(9, data)
	if err != nil {
		t.Fatal(err)
	}
	e := New(&recEnv{self: 2}, cfg)
	e.SetMembers(members)
	e.OnManifest(man)
	for g := 0; g < 2; g++ {
		for _, i := range []int{0, 1, 2, 4} { // k symbols, data symbol 3 missing
			e.OnMessage(3, symbolMsg(origin, 9, g, i, 0))
		}
	}
	if done, _, _ := e.Progress(9); done != 0 {
		t.Fatalf("%d generations decoded around a data symbol that may still arrive", done)
	}
	e.OnMessage(3, symbolMsg(origin, 9, 0, 3, 0)) // the straggler lands
	if done, _, _ := e.Progress(9); done != 1 {
		t.Fatalf("generation with all its data symbols not complete: %d done", done)
	}
	e.OnTick(time.Time{}.Add(time.Millisecond)) // generation 1's never does
	if got, ok := e.Object(9); !ok || !bytes.Equal(got, data) {
		t.Fatal("tick did not decode the generation left short of a data symbol")
	}
}

// reportMsg builds the progress report a receiver sends the origin once
// the scatter of objID has reached it up to (not including) position pos.
func reportMsg(e *Engine, objID uint64, pos int) *wire.Message {
	o := e.objects[objID]
	w := o.man.K + o.man.R
	return &wire.Message{
		Kind: wire.KindBulkReq, Flags: wire.FlagBulkReport, Group: e.cfg.Group,
		Seq: objID, Aux: uint64(pos/w)<<32 | uint64(pos%w),
	}
}

// TestScatterWindowed pins the scatter window: an object within it leaves
// in the activation that scatters it; a larger one stops at the window and
// each report releases exactly the symbols up to the slowest member's
// position plus the window, never more.
func TestScatterWindowed(t *testing.T) {
	env := &recEnv{self: 1, now: time.Unix(1000, 0)}
	e := New(env, Config{Group: 1})
	e.SetMembers([]id.Node{1, 2, 3, 4})
	const objSize = 1 << 20
	perObject := objSize / DefaultSymbolSize * (DefaultDataShards + DefaultRepairShards) / DefaultDataShards
	for i := 1; i <= scatterWindowBytes/DefaultSymbolSize/perObject; i++ {
		if _, err := e.Publish(uint64(i), testObject(objSize, int64(i))); err != nil {
			t.Fatal(err)
		}
		e.Scatter(uint64(i))
		if n := env.count(wire.KindBulkSym); n != i*perObject {
			t.Fatalf("object %d within the window: %d symbols sent, want %d", i, n, i*perObject)
		}
	}

	const window = 64 // symbols
	env = &recEnv{self: 1, now: time.Unix(1000, 0)}
	e = New(env, Config{Group: 1})
	e.window = window * DefaultSymbolSize
	e.SetMembers([]id.Node{1, 2, 3, 4})
	if _, err := e.Publish(9, testObject(objSize, 9)); err != nil {
		t.Fatal(err)
	}
	e.Scatter(9)
	seen := map[id.Node]int{2: 0, 3: 0, 4: 0}
	check := func(when string) {
		t.Helper()
		floor := min(seen[2], seen[3], seen[4])
		want := min(floor+window, perObject)
		if n := env.count(wire.KindBulkSym); n != want {
			t.Fatalf("%s: %d symbols sent with the slowest member at %d, want %d", when, n, floor, want)
		}
		if got := e.m.scatterInflight.Value(); got != int64((want-min(floor, want))*DefaultSymbolSize) {
			t.Fatalf("%s: in-flight gauge %d with %d sent beyond position %d", when, got, want, floor)
		}
	}
	check("after Scatter")
	rng := rand.New(rand.NewSource(1))
	for step := 0; seen[2] < perObject || seen[3] < perObject || seen[4] < perObject; step++ {
		m := id.Node(2 + rng.Intn(3))
		// A member cannot have seen what has not been sent.
		seen[m] = min(seen[m]+rng.Intn(window), env.count(wire.KindBulkSym))
		if step%7 == 0 {
			e.OnMessage(m, reportMsg(e, 9, seen[m]/2)) // a reordered older report changes nothing
		}
		e.OnMessage(m, reportMsg(e, 9, seen[m]))
		check("after a report")
	}
	if peak := e.m.scatterInflightMax.Value(); peak != window*DefaultSymbolSize {
		t.Fatalf("in-flight peak %d, want the window of %d", peak, window*DefaultSymbolSize)
	}
	if len(e.scatters) != 0 {
		t.Fatalf("%d scatters still queued after every member saw all of it", len(e.scatters))
	}
	if waits := e.m.scatterWaits.Value(); waits == 0 {
		t.Fatal("bulk.scatter_window_waits did not count the shut window")
	}
}

// TestScatterSurvivesReceiverLeave removes a receiver from the view while
// the window is shut on it: the scatter must finish in that activation,
// not wait for a report that will never come.
func TestScatterSurvivesReceiverLeave(t *testing.T) {
	env := &recEnv{self: 1, now: time.Unix(1000, 0)}
	e := New(env, Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2})
	e.window = 16 * 256
	e.SetMembers([]id.Node{1, 2, 3, 4})
	if _, err := e.Publish(3, testObject(40_000, 51)); err != nil {
		t.Fatal(err)
	}
	total := len(e.objects[3].gens) * 10
	e.Scatter(3)
	for _, m := range []id.Node{2, 3} {
		e.OnMessage(m, reportMsg(e, 3, total)) // complete: the whole object seen
	}
	if n := env.count(wire.KindBulkSym); n != 16 {
		t.Fatalf("%d symbols sent while n4 holds the window shut, want 16", n)
	}
	e.SetMembers([]id.Node{1, 2, 3})
	if n := env.count(wire.KindBulkSym); n != total {
		t.Fatalf("%d of %d symbols sent after n4 left the view", n, total)
	}
	if len(e.scatters) != 0 {
		t.Fatalf("%d scatters still queued", len(e.scatters))
	}
	for _, s := range env.sent[16:] {
		if s.to == 4 {
			t.Fatalf("symbol %#x striped to the departed n4", s.aux)
		}
	}
}

// shrinkWindow gives every engine of the fleet a scatter window of bytes.
func (f *fleet) shrinkWindow(bytes int) {
	for _, e := range f.engines {
		e.window = bytes
	}
}

// TestScatterSilentReceiverStopsGating cuts one receiver off while an
// object larger than the window is scattered: the origin waits for it one
// RequestEvery, not longer, the others complete, and the silent one pulls
// the object once it is reachable again.
func TestScatterSilentReceiverStopsGating(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 7, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	f.shrinkWindow(32 * 256)
	for _, from := range f.nodes[:3] {
		f.sim.BlockDirected(from, 4)
	}
	data := testObject(100_000, 52)
	f.publish(t, 1, 21, data, true)
	origin := f.engines[1]
	f.sim.At(10*time.Millisecond+RequestEvery/2, func() {
		if len(origin.scatters) != 1 || !origin.shut {
			t.Errorf("half a timeout in: %d scatters, shut=%v; want the window shut on n4", len(origin.scatters), origin.shut)
		}
	})
	f.sim.At(10*time.Millisecond+RequestEvery+10*time.Millisecond, func() {
		if origin.m.scatterUngated.Value() != 1 || origin.scatters[0].next <= 32 {
			t.Errorf("one timeout in: %d ungated, scatter at position %d; want it moving again without n4",
				origin.m.scatterUngated.Value(), origin.scatters[0].next)
		}
	})
	f.sim.At(500*time.Millisecond, func() {
		if len(origin.scatters) != 0 {
			t.Errorf("scatter still in progress at 500ms")
		}
		for _, node := range []id.Node{2, 3} {
			if _, ok := f.engines[node].Object(21); !ok {
				t.Errorf("node %s incomplete at 500ms", node)
			}
		}
		for _, from := range f.nodes[:3] {
			f.sim.UnblockDirected(from, 4)
		}
	})
	f.sim.Run(3 * time.Second)
	f.assertAllComplete(t, 21, data, nil)
	if n := origin.m.scatterUngated.Value(); n != 1 {
		t.Fatalf("bulk.scatter_ungated = %d, want 1", n)
	}
	if n := f.engines[4].m.requestsSent.Value(); n == 0 {
		t.Fatal("the silent member completed without pulling")
	}
}

// TestScatterReportLoss scatters an object larger than the window through
// 5 % loss in both directions, so symbols and reports both go missing: the
// window must keep moving on the reports that do arrive, and the losses
// must not turn into a storm of timed-out requests.
func TestScatterReportLoss(t *testing.T) {
	f := newFleet(t, 4, 8, netsim.LANProfile(time.Millisecond, 200*time.Microsecond, 0.05), Config{Group: 1})
	data := testObject(6<<20, 53)
	f.publish(t, 1, 22, data, true)
	f.sim.Run(10 * time.Second)
	f.assertAllComplete(t, 22, data, nil)
	var timedOut, reports uint64
	for _, node := range f.nodes[1:] {
		timedOut += f.engines[node].m.requestsTimedOut.Value()
		reports += f.engines[node].m.reportsSent.Value()
	}
	origin := f.engines[1]
	t.Logf("completed at %v; %d reports sent, %d moved a gate, %d window waits, %d ungated, %d requests timed out",
		f.doneAt, reports, origin.m.reportsRx.Value(), origin.m.scatterWaits.Value(), origin.m.scatterUngated.Value(), timedOut)
	if timedOut > 200 {
		t.Errorf("%d requests timed out, want <= 200", timedOut)
	}
	if origin.m.scatterWaits.Value() == 0 {
		t.Error("a 6 MiB object never found the window shut")
	}
	if peak := origin.m.scatterInflightMax.Value(); peak > scatterWindowBytes {
		t.Errorf("in-flight peak %d above the window", peak)
	}
}

// TestScatterBottleneckLink puts one receiver behind 1.25 MB/s links (10
// Mbit/s) and scatters 8 MiB: the origin must neither overrun that
// receiver — its in-flight bytes stay within the window, and the receiver
// never has to pull — nor stall it: it completes within 1.3 x the time
// its links need. netsim limits each directed link, and each of the three
// links into the receiver carries a third of the coded object.
func TestScatterBottleneckLink(t *testing.T) {
	const (
		slow      = id.Node(4)
		bandwidth = 1.25e6
		size      = 8 << 20
	)
	lan := netsim.Link{Delay: time.Millisecond}
	f := newFleet(t, 4, 9, func(_, to id.Node) netsim.Link {
		l := lan
		if to == slow {
			l.Bandwidth = bandwidth
		}
		return l
	}, Config{Group: 1})
	f.shrinkWindow(256 << 10)
	data := testObject(size, 54)
	f.publish(t, 1, 23, data, true)
	f.sim.Run(20 * time.Second)
	f.assertAllComplete(t, 23, data, nil)
	origin := f.engines[1]
	perLink := float64(size) * (DefaultDataShards + DefaultRepairShards) / DefaultDataShards / 3
	limit := time.Duration(1.3 * perLink / bandwidth * float64(time.Second))
	took := f.doneAt[slow] - 10*time.Millisecond
	t.Logf("slow receiver done after %v (limit %v), the others at %v; peak in flight %d; %d window waits",
		took, limit, f.doneAt, origin.m.scatterInflightMax.Value(), origin.m.scatterWaits.Value())
	if took > limit {
		t.Errorf("slow receiver completed after %v, want <= %v", took, limit)
	}
	if peak := origin.m.scatterInflightMax.Value(); peak > 256<<10 {
		t.Errorf("in-flight peak %d above the window of %d", peak, 256<<10)
	}
	if n := origin.m.scatterUngated.Value(); n != 0 {
		t.Errorf("%d members stopped gating: the slow receiver was overrun, not waited for", n)
	}
	for _, node := range f.nodes[1:] {
		if n := f.engines[node].m.requestsSent.Value(); n != 0 {
			t.Errorf("node %s pulled %d symbols on a lossless path", node, n)
		}
	}
}

// TestNotHeldRetargetsAtOnce pins the cost of asking the wrong peer: its
// body-less answer moves the request to the next-ranked target within the
// same activation, and once every candidate has said no the request waits
// for its timeout instead of circling at network speed.
func TestNotHeldRetargetsAtOnce(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 64, DataShards: 1, RepairShards: 1, MaxRequests: 1}
	origin := New(&recEnv{self: 1}, cfg)
	man, err := origin.Publish(8, testObject(64, 49))
	if err != nil {
		t.Fatal(err)
	}
	env := &recEnv{self: 2}
	e := New(env, cfg)
	e.SetMembers([]id.Node{1, 2, 3, 4})
	e.Pull(man)
	if len(env.sent) != 1 || env.sent[0].kind != wire.KindBulkReq || env.sent[0].to != 1 {
		t.Fatalf("Pull sent %+v, want one request to the origin", env.sent)
	}
	notHeld := func(from id.Node) {
		e.OnMessage(from, &wire.Message{Kind: wire.KindBulkSym, Group: 1, Seq: 8, Aux: 0})
	}
	notHeld(3) // not the peer that was asked: ignored
	if len(env.sent) != 1 {
		t.Fatalf("a stranger's answer re-targeted the request: %+v", env.sent)
	}
	asked := []id.Node{1}
	for len(asked) < 3 {
		notHeld(asked[len(asked)-1])
		if len(env.sent) != len(asked)+1 {
			t.Fatalf("after %d answers: %d requests sent", len(asked), len(env.sent))
		}
		asked = append(asked, env.sent[len(env.sent)-1].to)
	}
	if asked[1] == asked[2] || asked[1] == 1 || asked[2] == 1 {
		t.Fatalf("targets %v: want the origin, then each other peer once", asked)
	}
	notHeld(asked[2]) // everyone has said no: wait for the timeout
	if len(env.sent) != 3 {
		t.Fatalf("request kept circling after every candidate answered: %+v", env.sent)
	}
	e.OnTick(time.Time{}.Add(RequestEvery))
	if len(env.sent) != 4 || env.sent[3].to != 1 {
		t.Fatalf("timeout did not wrap to the origin: %+v", env.sent)
	}
	// The origin's own engine answers a request it cannot serve.
	oenv := origin.env.(*recEnv)
	origin.OnMessage(2, &wire.Message{Kind: wire.KindBulkReq, Group: 1, Seq: 999, Aux: 0})
	if len(oenv.sent) != 1 || oenv.sent[0].kind != wire.KindBulkSym || oenv.sent[0].bodyBytes != 0 || oenv.sent[0].obj != 999 {
		t.Fatalf("unservable request answered with %+v, want a body-less symbol", oenv.sent)
	}
}

// TestLosslessPathDropsRepair pins how an origin sets r on a path that
// loses nothing: the first object carries Config.RepairShards, since no
// receiver has reported yet; the second, published after every receiver
// reported the first complete with no data symbol missing, carries none,
// and the origin sends exactly its K data symbols per generation.
func TestLosslessPathDropsRepair(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 10, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	first, second := testObject(20_000, 55), testObject(20_000, 56)
	f.publishAt(t, 10*time.Millisecond, 1, 31, first, true)
	origin := f.engines[1]
	var sentBefore int
	var repairBefore uint64
	f.sim.At(300*time.Millisecond, func() {
		sentBefore, repairBefore = f.symsSent[1], origin.m.repairSent.Value()
	})
	f.publishAt(t, 300*time.Millisecond, 1, 32, second, true)
	f.sim.Run(time.Second)
	f.assertAllComplete(t, 31, first, nil)
	f.assertAllComplete(t, 32, second, nil)
	if r := f.manifests[31].R; r != cfg.RepairShards {
		t.Fatalf("first object carries r = %d, want Config.RepairShards = %d", r, cfg.RepairShards)
	}
	man := f.manifests[32]
	if man.R != 0 {
		t.Fatalf("second object carries r = %d after lossless reports, want 0", man.R)
	}
	if sent, want := f.symsSent[1]-sentBefore, man.Generations()*man.K; sent != want {
		t.Fatalf("origin sent %d symbols for the second object, want K per generation = %d", sent, want)
	}
	if n := origin.m.repairSent.Value() - repairBefore; n != 0 {
		t.Fatalf("bulk.repair_symbols_sent rose by %d for an r = 0 object", n)
	}
	if g := origin.m.scatterRepair.Value(); g != 0 {
		t.Fatalf("bulk.scatter_repair_shards = %d, want 0", g)
	}
}

// TestLossyPathKeepsRepair publishes three objects through 5 % loss: once
// a receiver's completion report has counted a data symbol the scatter did
// not deliver, every object carries Config.RepairShards, and all of them
// complete byte-equal.
func TestLossyPathKeepsRepair(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 6, 11, netsim.LANProfile(time.Millisecond, 200*time.Microsecond, 0.05), cfg)
	origin := f.engines[1]
	objs := [][]byte{testObject(30_000, 57), testObject(30_000, 58), testObject(30_000, 59)}
	lossSeen := make([]bool, len(objs))
	for i, data := range objs {
		at := time.Duration(10+1000*i) * time.Millisecond
		f.sim.At(at, func() {
			for _, l := range origin.losses {
				lossSeen[i] = lossSeen[i] || l.lossy
			}
		})
		f.publishAt(t, at, 1, uint64(41+i), data, true)
	}
	f.sim.Run(4 * time.Second)
	for i, data := range objs {
		objID := uint64(41 + i)
		f.assertAllComplete(t, objID, data, nil)
		if i > 0 && !lossSeen[i] {
			t.Fatalf("no lossy completion report before object %d: 5 %% loss should have cost some receiver a data symbol", objID)
		}
		if r := f.manifests[objID].R; r != cfg.RepairShards {
			t.Fatalf("object %d carries r = %d, want Config.RepairShards = %d", objID, r, cfg.RepairShards)
		}
	}
}

// TestUnrepairedLossPulled loses one data symbol of an r = 0 object on its
// way to one receiver: that receiver pulls it after the quiet period and
// completes, and its completion report puts the next object back at full
// r.
func TestUnrepairedLossPulled(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 12, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	dropped := false
	f.drop = func(to id.Node, msg *wire.Message) bool {
		// Symbol 1 of generation 0 reaches n2 through its relay n3.
		if to != 2 || dropped || msg.Kind != wire.KindBulkSym || msg.Seq != 52 || msg.Aux != 1 || len(msg.Body) == 0 {
			return false
		}
		dropped = true
		return true
	}
	objs := [][]byte{testObject(20_000, 60), testObject(20_000, 61), testObject(20_000, 62)}
	for i, data := range objs {
		f.publishAt(t, time.Duration(10+400*i)*time.Millisecond, 1, uint64(51+i), data, true)
	}
	f.sim.Run(1500 * time.Millisecond)
	for i, data := range objs {
		f.assertAllComplete(t, uint64(51+i), data, nil)
	}
	if !dropped {
		t.Fatal("the symbol to lose never reached n2")
	}
	if r := f.manifests[52].R; r != 0 {
		t.Fatalf("object 52 carries r = %d, want 0 after a lossless first object", r)
	}
	if n := f.engines[2].m.requestsSent.Value(); n == 0 {
		t.Fatal("n2 completed an object missing a data symbol without pulling")
	}
	if r := f.manifests[53].R; r != cfg.RepairShards {
		t.Fatalf("object 53 carries r = %d after n2 reported a loss, want %d", r, cfg.RepairShards)
	}
}

// TestCorruptGenerationPulledAgain pins the generation check's strength: a
// generation holding one flipped byte, or a symbol of another object at the
// same position, fails its CRC-64, is discarded whole, and is pulled again.
func TestCorruptGenerationPulledAgain(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 4, RepairShards: 2}
	members := []id.Node{1, 2, 3}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	data, other := testObject(4*256, 63), testObject(4*256, 64) // one generation each
	man, err := origin.Publish(61, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Publish(62, other); err != nil {
		t.Fatal(err)
	}
	flipped := symbolMsg(origin, 61, 0, 2, 0)
	flipped.Body = bytes.Clone(flipped.Body)
	flipped.Body[100] ^= 0x01
	foreign := symbolMsg(origin, 62, 0, 2, 0)
	foreign.Seq = 61
	for _, c := range []struct {
		name string
		bad  *wire.Message
	}{{"flipped byte", flipped}, {"symbol of object 62", foreign}} {
		bad := c.bad
		t.Run(c.name, func(t *testing.T) {
			env := &recEnv{self: 2}
			e := New(env, cfg)
			e.SetMembers(members)
			e.OnManifest(man)
			for i := 0; i < cfg.DataShards; i++ {
				msg := symbolMsg(origin, 61, 0, i, 0)
				if i == 2 {
					msg = bad
				}
				e.OnMessage(3, msg)
			}
			if _, ok := e.Object(61); ok {
				t.Fatal("a corrupt generation was trusted")
			}
			if g := e.objects[61].gens[0]; g.done || g.have != 0 {
				t.Fatalf("corrupt generation kept: done=%v, %d symbols held", g.done, g.have)
			}
			env.now = env.now.Add(RequestEvery)
			e.OnTick(env.now)
			if n := env.count(wire.KindBulkReq); n != cfg.DataShards {
				t.Fatalf("%d requests after the check failed, want the generation's %d data symbols", n, cfg.DataShards)
			}
			for _, s := range env.sent {
				if s.kind == wire.KindBulkReq {
					e.OnMessage(s.to, symbolMsg(origin, 61, int(s.aux>>32), int(s.aux&0xffffffff), 0))
				}
			}
			if got, ok := e.Object(61); !ok || !bytes.Equal(got, data) {
				t.Fatal("the generation pulled again did not complete the object")
			}
		})
	}
}
