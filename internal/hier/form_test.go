package hier

import (
	"bytes"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// siteProfile returns a two-level link profile: nodes are grouped into
// sites of siteSize consecutive IDs, with a short intra-site delay and a
// long inter-site delay — the geography formation should rediscover.
func siteProfile(siteSize int, intra, inter time.Duration) func(from, to id.Node) netsim.Link {
	return func(from, to id.Node) netsim.Link {
		if (int(from)-1)/siteSize == (int(to)-1)/siteSize {
			return netsim.Link{Delay: intra, Jitter: intra / 4}
		}
		return netsim.Link{Delay: inter, Jitter: inter / 8}
	}
}

// buildAuto attaches an AutoHier group to the simulation: every node
// knows the member universe up front and measures distances with the
// built-in clocksync prober.
func buildAuto(t *testing.T, s *netsim.Sim, total, fanOut int) map[id.Node]*hierNode {
	t.Helper()
	all := nodeRange(total)
	nodes := make(map[id.Node]*hierNode, total)
	for _, n := range all {
		n := n
		s.AddNode(n, func(env proto.Env) proto.Handler {
			hn := &hierNode{}
			eng, err := New(env, Config{
				LocalGroup: 1,
				WideGroup:  2,
				ClockGroup: 3,
				AutoHier:   true,
				Members:    all,
				FanOut:     fanOut,
				Form:       FormConfig{ProbeEvery: 100 * time.Millisecond},
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

// topoBytes canonicalizes a topology for equality checks.
func topoBytes(t Topology) []byte { return appendTopoBody(nil, t) }

// TestAutoFormationConverges pins the tentpole end to end: 16 nodes in 4
// latency sites self-organize, agree on one topology within a few
// seconds, respect the fan-out bound, cluster by site, and then deliver
// a multicast exactly once everywhere.
func TestAutoFormationConverges(t *testing.T) {
	const n, fanOut = 16, 6
	s := netsim.New(netsim.Config{
		Seed:    71,
		Profile: siteProfile(4, 2*time.Millisecond, 15*time.Millisecond),
	})
	nodes := buildAuto(t, s, n, fanOut)
	s.Run(5 * time.Second)

	ref := nodes[1].eng
	if ref.Epoch() < 2 {
		t.Fatalf("n1 epoch = %d, want a formed topology (≥2)", ref.Epoch())
	}
	if ref.Leader() != 1 {
		t.Fatalf("n1 leader = %s, want n1 (lowest live ID)", ref.Leader())
	}
	want := topoBytes(ref.CurrentTopology())
	for nd, hn := range nodes {
		if hn.eng.Epoch() != ref.Epoch() {
			t.Errorf("node %s epoch = %d, want %d", nd, hn.eng.Epoch(), ref.Epoch())
		}
		if !bytes.Equal(topoBytes(hn.eng.CurrentTopology()), want) {
			t.Errorf("node %s topology differs from n1's", nd)
		}
	}
	topo := ref.CurrentTopology()
	if topo.Size() != n {
		t.Fatalf("topology covers %d nodes, want %d", topo.Size(), n)
	}
	for i, c := range topo.Clusters {
		if len(c) > fanOut {
			t.Fatalf("cluster %d has %d members, beyond fan-out %d", i, len(c), fanOut)
		}
		// Latency-near clustering: with sites 7.5× closer than the
		// inter-site path, no cluster should straddle sites.
		site := (int(c[0]) - 1) / 4
		for _, m := range c {
			if (int(m)-1)/4 != site {
				t.Errorf("cluster %d mixes sites: %v", i, c)
			}
		}
	}

	// Data plane over the formed overlay.
	s.At(5*time.Second+10*time.Millisecond, func() {
		if err := nodes[6].eng.Multicast([]byte("formed hello")); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	})
	s.Run(8 * time.Second)
	for nd, hn := range nodes {
		if len(hn.got) != 1 {
			t.Fatalf("node %s delivered %d messages, want exactly 1", nd, len(hn.got))
		}
		if hn.got[0].Origin != 6 || string(hn.got[0].Payload) != "formed hello" {
			t.Fatalf("node %s delivery = %+v", nd, hn.got[0])
		}
	}
}

// TestAutoHierDeliveryDuringFormation sends traffic while the overlay is
// still reshaping: the origin-replay recovery path must get every
// message to every node exactly once despite view churn.
func TestAutoHierDeliveryDuringFormation(t *testing.T) {
	const n = 12
	s := netsim.New(netsim.Config{
		Seed:    72,
		Profile: siteProfile(4, 2*time.Millisecond, 12*time.Millisecond),
	})
	nodes := buildAuto(t, s, n, 6)
	// Multicasts land at 300ms–1.5s, squarely inside the formation churn.
	payloads := [][]byte{[]byte("early-a"), []byte("early-b"), []byte("early-c")}
	for i, p := range payloads {
		p := p
		s.At(300*time.Millisecond+time.Duration(i)*400*time.Millisecond, func() {
			if err := nodes[5].eng.Multicast(p); err != nil {
				t.Errorf("Multicast: %v", err)
			}
		})
	}
	s.Run(8 * time.Second)
	for nd, hn := range nodes {
		if len(hn.got) != len(payloads) {
			t.Fatalf("node %s delivered %d messages, want %d", nd, len(hn.got), len(payloads))
		}
		for i, d := range hn.got {
			if d.Origin != 5 || string(d.Payload) != string(payloads[i]) {
				t.Fatalf("node %s delivery %d = %+v (FIFO per origin violated?)", nd, i, d)
			}
		}
	}
}

// TestFormClusters pins the clustering algorithm on synthetic distances:
// full coverage without duplicates, the fan-out bound, site-pure
// clusters, and medoid coordinators.
func TestFormClusters(t *testing.T) {
	members := nodeRange(12)
	dist := func(a, b id.Node) time.Duration {
		if a == b {
			return 0
		}
		if (int(a)-1)/4 == (int(b)-1)/4 {
			return 2 * time.Millisecond
		}
		return 20 * time.Millisecond
	}
	topo, cost := formClusters(members, 4, dist)
	if topo.Size() != len(members) {
		t.Fatalf("clustered %d members, want %d", topo.Size(), len(members))
	}
	seen := make(map[id.Node]bool)
	for i, c := range topo.Clusters {
		if len(c) > 4 {
			t.Fatalf("cluster %d exceeds fan-out: %v", i, c)
		}
		site := (int(c[0]) - 1) / 4
		for _, m := range c {
			if seen[m] {
				t.Fatalf("member %s in two clusters", m)
			}
			seen[m] = true
			if (int(m)-1)/4 != site {
				t.Errorf("cluster %d mixes sites: %v", i, c)
			}
		}
		r := topo.RelayOf(i)
		if topo.ClusterOf(r) != i {
			t.Fatalf("cluster %d coordinator %s not a member", i, r)
		}
	}
	if cost <= 0 {
		t.Fatalf("cost = %v, want positive", cost)
	}
	// Determinism: same inputs, same tree.
	topo2, _ := formClusters(members, 4, dist)
	if !bytes.Equal(topoBytes(topo), topoBytes(topo2)) {
		t.Fatal("formClusters is not deterministic")
	}
}

// TestFormClustersDegenerate covers the small and empty cases.
func TestFormClustersDegenerate(t *testing.T) {
	far := func(a, b id.Node) time.Duration { return 10 * time.Millisecond }
	if topo, _ := formClusters(nil, 4, far); len(topo.Clusters) != 0 {
		t.Fatalf("empty member set formed %d clusters", len(topo.Clusters))
	}
	topo, _ := formClusters([]id.Node{7}, 4, far)
	if topo.Size() != 1 || topo.RelayOf(0) != 7 {
		t.Fatalf("singleton clustering = %+v", topo)
	}
	// Fan-out 1 must still place everyone (one singleton cluster each).
	topo, _ = formClusters(nodeRange(5), 1, far)
	if topo.Size() != 5 || len(topo.Clusters) != 5 {
		t.Fatalf("fan-out 1: %+v", topo)
	}
}

// TestFormClustersFanOutTwo: fan-out 2 pairs members up by site instead
// of leaving every member a cluster of its own.
func TestFormClustersFanOutTwo(t *testing.T) {
	pairs := func(a, b id.Node) time.Duration {
		switch {
		case a == b:
			return 0
		case (a-1)/2 == (b-1)/2:
			return time.Millisecond
		}
		return 15 * time.Millisecond
	}
	topo, _ := formClusters(nodeRange(6), 2, pairs)
	if topo.Size() != 6 || len(topo.Clusters) != 3 {
		t.Fatalf("fan-out 2 over three two-member sites: %+v", topo)
	}
	for _, c := range topo.Clusters {
		if len(c) != 2 || (c[0]-1)/2 != (c[1]-1)/2 {
			t.Errorf("cluster %v is not one site", c)
		}
	}
}

// TestTopoBodyRoundTrip pins the control-plane topology codec, including
// rejection of truncated bodies.
func TestTopoBodyRoundTrip(t *testing.T) {
	in := Topology{
		Clusters:     [][]id.Node{{1, 2, 3}, {4, 5}},
		Coordinators: []id.Node{2, 4},
	}
	body := appendTopoBody(nil, in)
	out, ok := decodeTopoBody(body)
	if !ok {
		t.Fatal("decodeTopoBody rejected a valid body")
	}
	if !bytes.Equal(topoBytes(in), topoBytes(out)) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
	if out.RelayOf(0) != 2 {
		t.Fatalf("pinned coordinator lost: RelayOf(0) = %s", out.RelayOf(0))
	}
	for cut := 1; cut < len(body); cut++ {
		if _, ok := decodeTopoBody(body[:cut]); ok {
			t.Fatalf("truncated body (%d/%d bytes) accepted", cut, len(body))
		}
	}
}

// TestReportRoundTrip pins the distance-vector codec.
func TestReportRoundTrip(t *testing.T) {
	vec := map[id.Node]time.Duration{
		2: 1500 * time.Microsecond,
		9: 20 * time.Millisecond,
	}
	body := []byte{opReport, 0, 0, 0, 2}
	for _, n := range []id.Node{2, 9} {
		body = append(body, 0, 0, 0, 0, 0, 0, 0, byte(n))
		us := uint32(vec[n] / time.Microsecond)
		body = append(body, byte(us>>24), byte(us>>16), byte(us>>8), byte(us))
	}
	got, ok := decodeReport(body)
	if !ok {
		t.Fatal("decodeReport rejected a valid body")
	}
	for n, d := range vec {
		if got[n] != d {
			t.Fatalf("vec[%s] = %v, want %v", n, got[n], d)
		}
	}
	if _, ok := decodeReport(body[:8]); ok {
		t.Fatal("truncated report accepted")
	}
}

// TestAutoHierCoordinatorPinning checks RelayOf honors Coordinators and
// falls back to lowest-ID when unset.
func TestAutoHierCoordinatorPinning(t *testing.T) {
	topo := Topology{
		Clusters:     [][]id.Node{{1, 2, 3}, {4, 5, 6}},
		Coordinators: []id.Node{3, id.None},
	}
	if r := topo.RelayOf(0); r != 3 {
		t.Fatalf("RelayOf(0) = %s, want pinned n3", r)
	}
	if r := topo.RelayOf(1); r != 4 {
		t.Fatalf("RelayOf(1) = %s, want lowest-ID fallback n4", r)
	}
	rs := topo.Relays()
	if len(rs) != 2 || rs[0] != 3 || rs[1] != 4 {
		t.Fatalf("Relays = %v", rs)
	}
}
