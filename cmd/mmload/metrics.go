package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric the benchmark prints. The two tables
// below are the benchmark's vocabulary: BENCHMARK.json lists exactly
// these names (the self-test compares them), and README.md explains each.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median a metric may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// prints every one of them from its untraced run; what each means on
// each workload is tabulated in README.md. A bound is one number per
// metric, so the noisiest workload sets it: each is at least three times
// the widest run-to-run spread measured on the two-core reference host
// (README.md, steadiness), up to the 25 % the benchmark contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"deliver_p50_ms", "ms", "lower", 0.20},
	{"deliver_p90_ms", "ms", "lower", 0.25},
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"allocs_per_delivery", "count", "lower", 0.10},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"datagrams_per_delivery", "count", "lower", 0.10},
	{"delivered_pct", "%", "higher", 0.03},
}

// perLayer are the single-layer metrics, printed from the traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// api: the root package as the application sees it.
	{"api.send_call_us_p50", "us", "lower", 0},
	{"api.deliver_p99_ms", "ms", "lower", 0},
	{"api.deliver_p999_ms", "ms", "lower", 0},
	{"api.deliver_samples", "count", "higher", 0},
	{"api.gen_late_ms_max", "ms", "lower", 0},
	{"api.trace_overhead_pct", "%", "lower", 0},
	{"api.layer_sum_vs_p50_pct", "%", "lower", 0},
	// noderun: the single event loop per node.
	{"noderun.probe_wait_us_p50", "us", "lower", 0},
	{"noderun.probe_wait_us_p99", "us", "lower", 0},
	// wire
	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.allocs_per_roundtrip", "count", "lower", 0},
	{"wire.pool_miss_pct", "%", "lower", 0},
	// transport
	{"transport.datagrams_per_delivery", "count", "lower", 0},
	{"transport.bytes_per_delivery", "B", "lower", 0},
	{"transport.syscalls_per_datagram", "count", "lower", 0},
	{"transport.batch_fill_p50", "count", "higher", 0},
	{"transport.rx_dropped", "count", "lower", 0},
	{"transport.queue_drops", "count", "lower", 0},
	{"transport.flush_us_p50", "us", "lower", 0},
	{"transport.wire_to_queue_us_p50", "us", "lower", 0},
	{"transport.udp_ceiling_datagrams_per_s", "1/s", "higher", 0},
	{"transport.ceiling_share_pct", "%", "higher", 0},
	// rmcast
	{"rmcast.rx_to_deliver_ms_p50", "ms", "lower", 0},
	{"rmcast.order_ranges_per_kdelivery", "count", "lower", 0},
	{"rmcast.nacks_sent_per_kdelivery", "count", "lower", 0},
	{"rmcast.retransmits_per_kdelivery", "count", "lower", 0},
	{"rmcast.nacks_suppressed_per_kdelivery", "count", "higher", 0},
	{"rmcast.local_repairs_per_kdelivery", "count", "higher", 0},
	{"rmcast.history_len_peak", "count", "lower", 0},
	{"rmcast.multicast_ns_per_msg", "ns", "lower", 0},
	{"rmcast.multicast_allocs_per_msg", "count", "lower", 0},
	{"rmcast.onmessage_ns_per_msg", "ns", "lower", 0},
	// member / failure
	{"member.join_ms_p50", "ms", "lower", 0},
	{"member.views_installed", "count", "lower", 0},
	{"member.proposals", "count", "lower", 0},
	{"member.evictions", "count", "lower", 0},
	{"member.sim_view_install_ms", "ms", "lower", 0},
	{"member.sim_service_gap_ms", "ms", "lower", 0},
	// hier
	{"hier.relay_forwards_per_delivery", "count", "lower", 0},
	{"hier.ctl_datagrams_per_delivery", "count", "lower", 0},
	{"hier.batch_flushes_per_kdelivery", "count", "lower", 0},
	{"hier.wide_datagram_share_pct", "%", "lower", 0},
	// rtx / media / frag / qos / msync
	{"rtx.send_call_us_p50", "us", "lower", 0},
	{"rtx.playout_delay_ms_final", "ms", "lower", 0},
	{"rtx.jitter_estimate_ms", "ms", "lower", 0},
	{"media.played_pct", "%", "higher", 0},
	{"media.playout_ms_p50", "ms", "lower", 0},
	{"media.late_frames_pct", "%", "lower", 0},
	{"media.frames_lost_pct", "%", "lower", 0},
	{"media.fec_recovered_per_lost", "count", "higher", 0},
	{"frag.frames_incomplete_pct", "%", "lower", 0},
	{"qos.policer_rejects", "count", "lower", 0},
	{"msync.skew_abs_p90_ms", "ms", "lower", 0},
	{"msync.corrections", "count", "lower", 0},
	// bulk / fec
	{"bulk.publish_call_ms_p50", "ms", "lower", 0},
	{"bulk.first_progress_ms_p50", "ms", "lower", 0},
	{"bulk.tail_ms_p50", "ms", "lower", 0},
	{"bulk.origin_bytes_per_object_byte", "count", "lower", 0},
	{"bulk.max_member_bytes_share_pct", "%", "lower", 0},
	{"fec.rs_encode_MBps", "MB/s", "higher", 0},
	{"fec.rs_reconstruct_MBps", "MB/s", "higher", 0},
	{"fec.xor_add_ns_per_frame", "ns", "lower", 0},
	// netsim
	{"netsim.events_per_delivery", "count", "lower", 0},
	{"netsim.wall_ns_per_event", "ns", "lower", 0},
	// runtime
	{"runtime.cpu_us_per_delivery", "us", "lower", 0},
	{"runtime.allocs_per_delivery", "count", "lower", 0},
	{"runtime.alloc_bytes_per_delivery", "B", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.heap_inuse_peak_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
}

// metricTable returns the table a run prints: per-layer when traced,
// end-to-end otherwise.
func metricTable(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// virtualMetrics are the end-to-end metrics that a simulated workload
// computes from virtual time and datagram counts alone: they repeat to
// the last digit for one seed, so -compare treats any change as a change.
var virtualMetrics = map[string]bool{
	"deliver_p50_ms":         true,
	"deliver_p90_ms":         true,
	"deliveries_per_s":       true,
	"goodput_MBps":           true,
	"datagrams_per_delivery": true,
	"delivered_pct":          true,
}

// exactMetric reports whether a (workload, end-to-end metric) pair is a
// count that repeats exactly for one seed.
func exactMetric(workload, metric string) bool {
	return strings.HasPrefix(workload, "sim-") && virtualMetrics[metric]
}

// quantile returns the q-quantile (0..1) of vs by nearest rank on a sorted
// copy; 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over a sample already in ascending order.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timed is a latency sample and the instant, in ns since the run's base,
// its message was due.
type timed struct {
	at int64
	ms float64
}

// latencyWindow is the length of the windows windowQuantile cuts a run
// into, and minWindowSamples what a window needs to count.
const (
	latencyWindow    = 500 * time.Millisecond
	minWindowSamples = 100
)

// windowQuantile is how the benchmark reports a latency percentile: the
// q-quantile of every latencyWindow of the run, then the median over the
// windows. A few seconds of interference from outside the process (this
// is a shared two-core host) then move a minority of windows, not the
// figure. A run too short for three full windows reports the plain
// quantile.
func windowQuantile(samples []timed, q float64) float64 {
	byWindow := make(map[int64][]float64)
	all := make([]float64, len(samples))
	for i, s := range samples {
		w := s.at / int64(latencyWindow)
		byWindow[w] = append(byWindow[w], s.ms)
		all[i] = s.ms
	}
	var perWindow []float64
	for _, ms := range byWindow {
		if len(ms) >= minWindowSamples {
			perWindow = append(perWindow, quantile(ms, q))
		}
	}
	if len(perWindow) < 3 {
		return quantile(all, q)
	}
	return quantile(perWindow, 0.5)
}

// millis returns the latencies of the samples.
func millis(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the acceptance rule for this benchmark uses.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
