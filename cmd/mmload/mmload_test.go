package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"scalamedia"
	"scalamedia/internal/transport"
)

// toySizing shrinks every workload so the whole self-test runs in a few
// seconds. Nothing here compares wall-clock figures.
var toySizing = sizing{
	warm: 50 * time.Millisecond, setups: 2, drain: 3 * time.Second,
	objectSize:    64 << 10,
	hierScenarios: 2, hierNodes: 16, hierCluster: 4, hierSenders: 4, hierRate: 50, hierVirtual: time.Second,
	crashScenarios: 2, crashNodes: 6, crashMsgs: 300, crashWindow: 4 * time.Second, crashAt: 2 * time.Second,
}

const toyDur = 400 * time.Millisecond

// ownedPerLayer names, per workload, per-layer metrics that only that kind
// of workload produces; a toy traced run must report each above zero.
var ownedPerLayer = map[string][]string{
	"fifo-small-udp": {"api.send_call_us_p50", "api.deliver_p99_ms", "noderun.probe_wait_us_p50",
		"wire.encode_ns_per_msg", "transport.flush_us_p50", "transport.wire_to_queue_us_p50",
		"transport.udp_ceiling_datagrams_per_s", "rmcast.rx_to_deliver_ms_p50", "rmcast.multicast_ns_per_msg",
		"rmcast.onmessage_ns_per_msg", "member.join_ms_p50", "runtime.allocs_per_delivery"},
	"total-1k-udp":            {"rmcast.order_ranges_per_kdelivery", "rmcast.onmessage_ns_per_msg", "transport.bytes_per_delivery"},
	"conference-lossy-fabric": {"rtx.send_call_us_p50", "media.played_pct", "media.playout_ms_p50", "rtx.playout_delay_ms_final", "fec.xor_add_ns_per_frame"},
	"bulk-1m-udp":             {"bulk.publish_call_ms_p50", "bulk.first_progress_ms_p50", "bulk.origin_bytes_per_object_byte", "bulk.max_member_bytes_share_pct", "fec.rs_encode_MBps", "fec.rs_reconstruct_MBps"},
	"sim-hier-64":             {"hier.relay_forwards_per_delivery", "hier.ctl_datagrams_per_delivery", "hier.wide_datagram_share_pct", "netsim.events_per_delivery", "netsim.wall_ns_per_event"},
	"sim-crash-16":            {"member.sim_service_gap_ms", "member.sim_view_install_ms", "rmcast.order_ranges_per_kdelivery"},
}

func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the checks are on correctness and presence, not on speed
			r, _ := runOne(w, 1, toyDur, false, toySizing)
			if r.Failed != 0 {
				t.Fatalf("untraced: %d failed operations: %v", r.Failed, r.Failures)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above zero on every workload", d.Name, v)
				}
			}
			tr, spans := runOne(w, 1, 2*toyDur, true, toySizing)
			if tr.Failed != 0 {
				t.Fatalf("traced: %d failed operations: %v", tr.Failed, tr.Failures)
			}
			for _, d := range perLayer {
				if _, ok := tr.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, name := range ownedPerLayer[w.name] {
				if tr.Metrics[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want above zero here", name, tr.Metrics[name])
				}
			}
			if len(spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if w.name == "fifo-small-udp" {
				// The batched send path must survive the tap: one syscall
				// moves several datagrams.
				if s := tr.Metrics["transport.syscalls_per_datagram"]; s <= 0 || s >= 0.5 {
					t.Errorf("transport.syscalls_per_datagram = %v, want in (0, 0.5)", s)
				}
				if !strings.Contains(tr.LayerTable, "transport.rx") {
					t.Errorf("no layer table:\n%s", tr.LayerTable)
				}
			}
		})
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is not a valid unit", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name, "")
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkName("end-to-end", d.Name, d.Unit)
		j := bf.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName("per-layer", d.Name, d.Unit)
		j := bf.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/mmload" {
		t.Errorf("paths = %v, want [cmd/mmload]", bf.Paths)
	}
}

// virtualOf extracts the metrics a simulated run computes from virtual
// time and counts alone.
func virtualOf(r *result) map[string]float64 {
	out := make(map[string]float64)
	for name := range virtualMetrics {
		out[name] = r.Metrics[name]
	}
	return out
}

func TestSimulatedWorkloadsRepeatExactly(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"sim-hier-64", "sim-crash-16"} {
		w, _ := findWorkload(name)
		a, _ := runOne(w, 7, toyDur, false, toySizing)
		b, _ := runOne(w, 7, toyDur, false, toySizing)
		c, _ := runOne(w, 8, toyDur, false, toySizing)
		va, vb, vc := virtualOf(a), virtualOf(b), virtualOf(c)
		same, differs := true, false
		for k := range va {
			if va[k] != vb[k] {
				same = false
				t.Errorf("%s: %s = %v then %v for one seed", name, k, va[k], vb[k])
			}
			if va[k] != vc[k] {
				differs = true
			}
		}
		if same && !differs {
			t.Errorf("%s: another seed changed no virtual metric: %v", name, va)
		}
	}
}

// bareEndpoint implements only transport.Endpoint.
type bareEndpoint struct{ transport.Endpoint }

func TestTapForwardsTheOptionalInterfaces(t *testing.T) {
	udp, err := transport.ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := newTap(udp, newTracer(time.Now()))
	defer tp.Close()
	var ep transport.Endpoint = tp
	if _, ok := ep.(transport.BatchSender); !ok {
		t.Error("tap is not a BatchSender")
	}
	if _, ok := ep.(transport.Instrumented); !ok {
		t.Error("tap is not Instrumented")
	}
	if _, ok := ep.(transport.Reachability); !ok {
		t.Error("tap has no Reachability")
	}
	if _, ok := ep.(transport.AddrLearner); !ok {
		t.Error("tap is not an AddrLearner")
	}
	if tp.CanReach(2) {
		t.Error("CanReach(2) before any peer is known")
	}
	if err := tp.LearnPeer(2, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if !tp.CanReach(2) {
		t.Error("LearnPeer did not reach the UDP endpoint")
	}
	// Over an endpoint without the optional interfaces the tap degrades
	// the way the engines assume: everything reachable, batching a no-op.
	fab := transport.NewFabric()
	defer fab.Close()
	inner, err := fab.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	bare := newTap(bareEndpoint{inner}, newTracer(time.Now()))
	if !bare.CanReach(9) || bare.LearnPeer(9, "x") != nil || bare.Flush() != nil {
		t.Error("tap over a bare endpoint does not degrade gracefully")
	}
}

// TestCheckerCatchesADroppedDelivery feeds the checker one sender's
// messages with one missing: the run must count failed operations, report
// itself incorrect and so exit non-zero.
func TestCheckerCatchesADroppedDelivery(t *testing.T) {
	w := workloadDef{name: "corrupted", run: func(rc *runCtx) error {
		rec := &msgRec{self: 2, base: rc.base, wake: make(chan struct{}, 1)}
		for _, seq := range []uint64{1, 2, 4} { // 3 never arrives
			p := make([]byte, 32)
			stampPayload(p, makeID(phaseA, 1, seq), 0)
			rec.onEvent(scalamedia.Event{Kind: scalamedia.MessageReceived, Node: 1, Payload: p})
		}
		rec.report(rc)
		rc.out.Attempted = 4
		return nil
	}}
	r, _ := runOne(w, 1, toyDur, false, toySizing)
	if r.Failed == 0 {
		t.Fatal("a dropped delivery went unnoticed")
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Errorf("result line reports correct=%v failed=%d", line.Correct, line.Failed)
	}
}

func TestPayloadHeaderRoundTrip(t *testing.T) {
	p := make([]byte, 64)
	msgID := makeID(phaseB, 3, 123456)
	stampPayload(p, msgID, 987654321)
	if got := binary.BigEndian.Uint64(p); got != msgID || idPhase(got) != phaseB || idSender(got) != 3 || idSeq(got) != 123456 {
		t.Errorf("id %x decodes to phase %d sender %d seq %d", got, idPhase(got), idSender(got), idSeq(got))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100e6, Parent: -1},
		{Name: "kid", Start: 10e6, End: 40e6, Parent: 0},
		{Name: "kid", Start: 30e6, End: 60e6, Parent: 0},  // overlaps its sibling
		{Name: "kid", Start: 90e6, End: 130e6, Parent: 0}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self["root"][0]; got != 40 {
		t.Errorf("root self time = %v ms, want 40 (100 minus 10..60 and 90..100)", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "deliver_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "deliveries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	sum := func(med, q1, q3 float64) metricSummary { return metricSummary{Median: med, Q1: q1, Q3: q3} }
	cases := []struct {
		d     metricDef
		exact bool
		a, b  metricSummary
		want  string
	}{
		{lower, false, sum(1, 0.99, 1.01), sum(1.05, 1, 1.1), "ok"},
		{lower, false, sum(1, 0.99, 1.01), sum(1.2, 1.1, 1.3), "regressed"},
		{lower, false, sum(1, 0.8, 1.2), sum(1.2, 1.1, 1.3), "unresolved"},
		{higher, false, sum(100, 99, 101), sum(80, 79, 81), "regressed"},
		{higher, false, sum(100, 99, 101), sum(130, 129, 131), "ok"},
		{lower, true, sum(8, 8, 8), sum(8, 8, 8), "ok"},
		{lower, true, sum(8, 8, 8), sum(8.001, 8.001, 8.001), "regressed"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.exact, c.a, c.b); got != c.want {
			t.Errorf("%s exact=%v A=%v B=%v: verdict %s, want %s", c.d.Name, c.exact, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
