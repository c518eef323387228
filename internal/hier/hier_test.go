package hier

import (
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
)

func nodeRange(n int) []id.Node {
	out := make([]id.Node, n)
	for i := range out {
		out[i] = id.Node(i + 1)
	}
	return out
}

func TestCluster(t *testing.T) {
	topo := Cluster(nodeRange(10), 4)
	if len(topo.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(topo.Clusters))
	}
	if topo.Size() != 10 {
		t.Fatalf("Size = %d", topo.Size())
	}
	if got := topo.ClusterOf(5); got != 1 {
		t.Fatalf("ClusterOf(5) = %d, want 1", got)
	}
	if got := topo.ClusterOf(99); got != -1 {
		t.Fatalf("ClusterOf(99) = %d, want -1", got)
	}
	if r := topo.RelayOf(1); r != 5 {
		t.Fatalf("RelayOf(1) = %s, want n5", r)
	}
	if r := topo.RelayOf(9); r != id.None {
		t.Fatalf("RelayOf(out of range) = %s", r)
	}
	relays := topo.Relays()
	if len(relays) != 3 || relays[0] != 1 || relays[1] != 5 || relays[2] != 9 {
		t.Fatalf("Relays = %v", relays)
	}
}

func TestClusterDegenerate(t *testing.T) {
	topo := Cluster(nodeRange(3), 0) // size clamped to 1
	if len(topo.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3 singletons", len(topo.Clusters))
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	buf := packEnvelope(7, 42, []byte("media"))
	origin, seq, payload, err := unpackEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if origin != 7 || seq != 42 || string(payload) != "media" {
		t.Fatalf("got %v %d %q", origin, seq, payload)
	}
	if _, _, _, err := unpackEnvelope([]byte("short")); err == nil {
		t.Fatal("short envelope accepted")
	}
}

// hierNode bundles an engine with its deliveries.
type hierNode struct {
	eng *Engine
	got []Delivery
}

// buildHier attaches a full hierarchical group to the simulation.
func buildHier(t *testing.T, s *netsim.Sim, total, clusterSize int) map[id.Node]*hierNode {
	t.Helper()
	topo := Cluster(nodeRange(total), clusterSize)
	nodes := make(map[id.Node]*hierNode, total)
	for _, n := range nodeRange(total) {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			hn := &hierNode{}
			eng, err := New(env, Config{
				LocalGroup: 1,
				WideGroup:  2,
				Topology:   topo,
				OnDeliver:  func(d Delivery) { hn.got = append(hn.got, d) },
			})
			if err != nil {
				t.Fatalf("New(%s): %v", n, err)
			}
			hn.eng = eng
			nodes[n] = hn
			return eng
		})
	}
	return nodes
}

// TestOriginSeqPrivateToEngine runs two engines on one metrics registry —
// two nodes of one process reporting together. Each must number its own
// multicasts 1, 2, 3…: taking the origin sequence from the shared
// rmcast.local.sent counter would interleave the two spaces.
func TestOriginSeqPrivateToEngine(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 5})
	reg := stats.NewRegistry()
	topo := Cluster(nodeRange(2), 2)
	got := make(map[id.Node][]Delivery)
	engines := make(map[id.Node]*Engine)
	for _, n := range nodeRange(2) {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			eng, err := New(env, Config{
				LocalGroup: 1, WideGroup: 2, Topology: topo, Metrics: reg,
				OnDeliver: func(d Delivery) { got[n] = append(got[n], d) },
			})
			if err != nil {
				t.Fatalf("New(%s): %v", n, err)
			}
			engines[n] = eng
			return eng
		})
	}
	for i := 0; i < 3; i++ {
		s.At(time.Duration(10+i)*time.Millisecond, func() { _ = engines[1].Multicast([]byte("a")) })
	}
	s.At(20*time.Millisecond, func() { _ = engines[2].Multicast([]byte("b")) })
	s.Run(time.Second)
	for _, n := range nodeRange(2) {
		next := map[id.Node]uint64{1: 1, 2: 1}
		for _, d := range got[n] {
			if d.Seq != next[d.Origin] {
				t.Fatalf("node %s: origin %s delivered seq %d, want %d", n, d.Origin, d.Seq, next[d.Origin])
			}
			next[d.Origin]++
		}
		if next[1] != 4 || next[2] != 2 {
			t.Fatalf("node %s delivered %d + %d messages, want 3 + 1", n, next[1]-1, next[2]-1)
		}
	}
}

func TestNewValidation(t *testing.T) {
	s := netsim.New(netsim.Config{})
	topo := Cluster(nodeRange(2), 2)
	s.AddNode(1, func(env proto.Env) proto.Handler {
		if _, err := New(env, Config{LocalGroup: 1, WideGroup: 1, Topology: topo}); err == nil {
			t.Error("same group IDs accepted")
		}
		eng, err := New(env, Config{LocalGroup: 1, WideGroup: 2, Topology: topo})
		if err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
		return eng
	})
	s.AddNode(99, func(env proto.Env) proto.Handler {
		if _, err := New(env, Config{LocalGroup: 1, WideGroup: 2, Topology: topo}); err == nil {
			t.Error("node outside topology accepted")
		}
		return proto.NewMux()
	})
	s.Run(time.Millisecond)
}

func TestHierAllReceive(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 31})
	nodes := buildHier(t, s, 12, 4)
	s.At(10*time.Millisecond, func() {
		if err := nodes[6].eng.Multicast([]byte("wide hello")); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	})
	s.Run(5 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != 1 {
			t.Fatalf("node %s delivered %d messages, want 1", n, len(hn.got))
		}
		d := hn.got[0]
		if d.Origin != 6 || string(d.Payload) != "wide hello" {
			t.Fatalf("node %s delivery = %+v", n, d)
		}
	}
}

func TestHierRelayFlag(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 32})
	nodes := buildHier(t, s, 8, 4)
	s.Run(10 * time.Millisecond)
	if !nodes[1].eng.IsRelay() || !nodes[5].eng.IsRelay() {
		t.Fatal("cluster heads not relays")
	}
	if nodes[2].eng.IsRelay() || nodes[8].eng.IsRelay() {
		t.Fatal("non-heads marked relay")
	}
}

func TestHierNoDuplicates(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 33})
	nodes := buildHier(t, s, 9, 3)
	const count = 20
	for i := 0; i < count; i++ {
		i := i
		s.At(time.Duration(10+i*5)*time.Millisecond, func() {
			nodes[1].eng.Multicast([]byte{byte(i)}) // relay itself sends
		})
	}
	s.Run(10 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != count {
			t.Fatalf("node %s delivered %d, want %d", n, len(hn.got), count)
		}
	}
}

func TestHierPerOriginFIFO(t *testing.T) {
	s := netsim.New(netsim.Config{
		Seed:    34,
		Profile: netsim.LANProfile(time.Millisecond, 8*time.Millisecond, 0.05),
	})
	nodes := buildHier(t, s, 12, 4)
	const count = 25
	senders := []id.Node{2, 7, 11} // one per cluster, none a relay
	for i := 0; i < count; i++ {
		i := i
		s.At(time.Duration(10+i*4)*time.Millisecond, func() {
			for _, snd := range senders {
				nodes[snd].eng.Multicast([]byte(fmt.Sprintf("%s-%d", snd, i)))
			}
		})
	}
	s.Run(20 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != count*len(senders) {
			t.Fatalf("node %s delivered %d, want %d", n, len(hn.got), count*len(senders))
		}
		seen := make(map[id.Node]uint64)
		for _, d := range hn.got {
			if d.Seq <= seen[d.Origin] {
				t.Fatalf("node %s: origin %s seq %d after %d",
					n, d.Origin, d.Seq, seen[d.Origin])
			}
			seen[d.Origin] = d.Seq
		}
	}
}

func TestHierLossRecovery(t *testing.T) {
	s := netsim.New(netsim.Config{
		Seed:    35,
		Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, 0.10),
	})
	nodes := buildHier(t, s, 8, 4)
	const count = 15
	for i := 0; i < count; i++ {
		i := i
		s.At(time.Duration(10+i*8)*time.Millisecond, func() {
			nodes[3].eng.Multicast([]byte{byte(i)})
		})
	}
	s.Run(15 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != count {
			t.Fatalf("node %s delivered %d of %d under loss", n, len(hn.got), count)
		}
	}
}

func TestHierSingleCluster(t *testing.T) {
	// Degenerate hierarchy: one cluster behaves like a flat group.
	s := netsim.New(netsim.Config{Seed: 36})
	nodes := buildHier(t, s, 4, 4)
	s.At(10*time.Millisecond, func() {
		nodes[2].eng.Multicast([]byte("flat"))
	})
	s.Run(2 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != 1 {
			t.Fatalf("node %s delivered %d", n, len(hn.got))
		}
	}
}

func TestHierCausalIntraCluster(t *testing.T) {
	// Causal ordering inside clusters composes with the hierarchy.
	s := netsim.New(netsim.Config{Seed: 37})
	topo := Cluster(nodeRange(6), 3)
	nodes := make(map[id.Node]*hierNode)
	for _, n := range nodeRange(6) {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			hn := &hierNode{}
			eng, err := New(env, Config{
				LocalGroup: 1,
				WideGroup:  2,
				Topology:   topo,
				Ordering:   rmcast.Causal,
				OnDeliver:  func(d Delivery) { hn.got = append(hn.got, d) },
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			hn.eng = eng
			nodes[n] = hn
			return eng
		})
	}
	s.At(10*time.Millisecond, func() { nodes[2].eng.Multicast([]byte("m1")) })
	s.At(100*time.Millisecond, func() { nodes[3].eng.Multicast([]byte("m2")) })
	s.Run(5 * time.Second)
	for n, hn := range nodes {
		if len(hn.got) != 2 {
			t.Fatalf("node %s delivered %d, want 2", n, len(hn.got))
		}
	}
}
