package scalamedia

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"scalamedia/internal/transport"
)

// TestSnapshotCoversLayers checks Node.Snapshot returns live counters
// from every instrumented layer after real group traffic: transport
// datagrams, rmcast sends and deliveries, membership view installs, the
// session message counter and the wire pool figures.
func TestSnapshotCoversLayers(t *testing.T) {
	a, b, _, logB := startFabricPair(t)
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})
	if err := a.Send([]byte("measured")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message at b", func() bool { return logB.count(MessageReceived) > 0 })

	snap := a.Snapshot()
	for _, name := range []string{
		"transport.datagrams_sent",
		"transport.datagrams_recv",
		"rmcast.sent",
		"rmcast.delivered",
		"member.views_installed",
		"session.messages_recv",
		"wire.pool.buf_gets",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero or missing; counters: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["rmcast.history_len"]; !ok {
		t.Error("gauge rmcast.history_len missing")
	}
	if len(a.Timeline()) == 0 {
		t.Error("flight recorder empty after group traffic")
	}
}

// TestOrderMetricsSurface checks the total-order telemetry through
// Node.Snapshot on a live pair: a message sequenced in an idle group is
// announced at the end of the activation that sequenced it (an early
// flush, latency mode) and its order wait is recorded at both members.
func TestOrderMetricsSurface(t *testing.T) {
	fab := transport.NewFabric(transport.WithSeed(5))
	t.Cleanup(fab.Close)
	var nodes []*Node
	logs := []*eventLog{{}, {}}
	for i := 1; i <= 2; i++ {
		ep, err := fab.Attach(NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: NodeID(i), Endpoint: ep, Group: 1, Ordering: Total,
			HeartbeatEvery: 50 * time.Millisecond,
			SuspectAfter:   5 * time.Second,
			OnEvent:        logs[i-1].add,
		}
		if i > 1 {
			cfg.Contact = 1
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
	}
	waitFor(t, "view of size 2", func() bool {
		return nodes[0].View().Size() == 2 && nodes[1].View().Size() == 2
	})
	// Node 2 sends; node 1, the view coordinator, sequences.
	if err := nodes[1].Send([]byte("ordered")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message at both", func() bool {
		return logs[0].count(MessageReceived) > 0 && logs[1].count(MessageReceived) > 0
	})

	seq := nodes[0].Snapshot()
	if seq.Counters["rmcast.order_flushes"] == 0 || seq.Counters["rmcast.order_flushes_early"] == 0 {
		t.Errorf("sequencer order_flushes=%d order_flushes_early=%d, want both > 0",
			seq.Counters["rmcast.order_flushes"], seq.Counters["rmcast.order_flushes_early"])
	}
	if mode, ok := seq.Gauges["rmcast.order_mode"]; !ok || mode != 0 {
		t.Errorf("sequencer order_mode = %d (registered %v), want 0 (latency)", mode, ok)
	}
	// Echoes open flushes only in cadence mode, which one message never
	// reaches: the counter is registered and still zero.
	if echoed, ok := seq.Counters["rmcast.order_flushes_echoed"]; !ok || echoed != 0 {
		t.Errorf("sequencer order_flushes_echoed = %d (registered %v), want 0", echoed, ok)
	}
	for i, n := range nodes {
		if h := n.Snapshot().Histograms["rmcast.order_wait_ms"]; h.Count == 0 {
			t.Errorf("node %d recorded no rmcast.order_wait_ms sample", i+1)
		}
	}
}

// TestOverloadMetricsSurface checks the overload-robustness telemetry is
// reachable through Node.Snapshot: the flow-control counters move when a
// send hits backpressure, and every slow-member and degradation metric is
// registered so dashboards can rely on the names before the first
// increment.
func TestOverloadMetricsSurface(t *testing.T) {
	fab := transport.NewFabric(transport.WithSeed(7))
	t.Cleanup(fab.Close)
	epA, err := fab.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := fab.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Start(Config{
		Self: 1, Endpoint: epA, Group: 1,
		Tick:           5 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   400 * time.Millisecond,
		FlowWindow:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Start(Config{
		Self: 2, Endpoint: epB, Group: 1, Contact: 1,
		Tick:           5 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})

	// A one-message window cannot hold two un-stabilized sends, so a
	// burst of TrySend must hit ErrBackpressure (stability needs a
	// gossip round trip the burst outruns).
	waitFor(t, "a TrySend rejection", func() bool {
		for i := 0; i < 8; i++ {
			if errors.Is(a.TrySend([]byte("burst")), ErrBackpressure) {
				return true
			}
		}
		return false
	})

	snap := a.Snapshot()
	if snap.Counters["rmcast.flow_rejected"] == 0 {
		t.Error("rmcast.flow_rejected did not move after a backpressure rejection")
	}
	for _, name := range []string{"member.slow_flagged", "member.slow_evicted", "media.frames_shed"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not registered; counters: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["rmcast.flow_occupancy"]; !ok {
		t.Error("gauge rmcast.flow_occupancy not registered")
	}
	if _, ok := snap.Histograms["rmcast.flow_blocked_ms"]; !ok {
		t.Error("histogram rmcast.flow_blocked_ms not registered")
	}

	// The per-receiver queue-drop counter registers when a bounded
	// receiver opens.
	if _, err := a.OpenReceiver(ReceiverConfig{
		Spec: StreamSpec{ID: 4, Name: "spk"}, MaxBuffered: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Snapshot().Counters["media.queue_dropped"]; !ok {
		t.Error("counter media.queue_dropped not registered after OpenReceiver")
	}
}

// TestMetricsEndpoint is the HTTP smoke test scripts/check.sh runs: boot
// a node with MetricsAddr, GET /metrics, and check the JSON decodes into
// a snapshot carrying live counters. /timeline and /debug/vars must also
// respond.
func TestMetricsEndpoint(t *testing.T) {
	a, b, _, _ := startFabricPair(t)
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})
	addr, err := a.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MetricsAddr(); got != addr {
		t.Fatalf("MetricsAddr() = %q, want %q", got, addr)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return body
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not snapshot JSON: %v", err)
	}
	if snap.Counters["transport.datagrams_sent"] == 0 {
		t.Error("/metrics shows no datagrams sent")
	}

	var events []FlightEvent
	if err := json.Unmarshal(get("/timeline"), &events); err != nil {
		t.Fatalf("/timeline is not event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("/timeline is empty after view formation")
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["scalamedia"]; !ok {
		t.Error(`/debug/vars missing the "scalamedia" per-node map`)
	}

	// The endpoint dies with the node.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}

// TestMetricsAddrInConfig checks the Start-time opt-in path and that a
// bad address fails Start cleanly.
func TestMetricsAddrInConfig(t *testing.T) {
	n, err := Start(Config{Self: 9, ListenAddr: "127.0.0.1:0", Group: 3,
		MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.MetricsAddr() == "" {
		t.Fatal("Config.MetricsAddr did not start the endpoint")
	}
	if _, err := Start(Config{Self: 10, ListenAddr: "127.0.0.1:0", Group: 3,
		MetricsAddr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad MetricsAddr accepted")
	}
}

// TestMetricsDocumented holds DESIGN.md §7 to the code: every metric name
// the registry of a started node reports must appear there, so an operator
// reading /metrics can look up what each figure counts. A metric added
// without its line fails here with the names to add.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## 7. Observability")
	if !ok {
		t.Fatal("DESIGN.md has no §7 Observability heading")
	}
	section, _, _ := strings.Cut(rest, "\n## ")

	// Engines resolve their metric handles at construction, so a node that
	// has started reports every name it ever will; no traffic is needed.
	a, _, _, _ := startFabricPair(t)
	snap := a.Snapshot()
	var missing []string
	check := func(name string) {
		if !strings.Contains(section, "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	for name := range snap.Counters {
		check(name)
	}
	for name := range snap.Gauges {
		check(name)
	}
	for name := range snap.Histograms {
		check(name)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d metrics a started node reports are not in DESIGN.md §7:\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
}
