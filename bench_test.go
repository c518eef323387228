package scalamedia

// The benchmark harness: one testing.B benchmark per table (T1-T7) and
// figure (F1-F6) of the reconstructed evaluation, plus the cluster-size
// ablation. Each benchmark runs the corresponding experiment end to end
// under the discrete-event simulator and reports domain metrics
// (latency, overhead, late rates) via b.ReportMetric, so `go test
// -bench=. -benchmem` regenerates every row and series at reduced
// (Quick) scale. The full-scale tables in EXPERIMENTS.md come from
// cmd/mmbench.

import (
	"strconv"
	"strings"
	"testing"

	"scalamedia/internal/experiments"
)

var benchOpts = experiments.Options{Quick: true}

// cellFloat extracts the leading float of one table cell.
func cellFloat(tb testing.TB, cell string) float64 {
	tb.Helper()
	fields := strings.Fields(strings.ReplaceAll(cell, "/", " "))
	v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "%"), 64)
	if err != nil {
		tb.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

// lastCell extracts the leading float of the last row's i-th column.
func lastCell(tb testing.TB, t experiments.Table, col int) float64 {
	tb.Helper()
	return cellFloat(tb, t.Rows[len(t.Rows)-1][col])
}

func BenchmarkT1LatencyVsGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T1LatencyVsGroupSize(benchOpts)
		b.ReportMetric(lastCell(b, t, 2), "fifo-ms")
		b.ReportMetric(lastCell(b, t, 4), "total-ms")
	}
}

func BenchmarkT2ThroughputVsGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T2ThroughputVsGroupSize(benchOpts)
		b.ReportMetric(lastCell(b, t, 2), "fifo-dlv/s")
	}
}

func BenchmarkT2bTotalOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T2TotalOrderThroughput(benchOpts)
		// Flat row: the sustained total-order rate the pipelined range
		// design is accountable for.
		b.ReportMetric(cellFloat(b, t.Rows[0][1]), "t2-total-deliveries/s")
	}
}

func BenchmarkT3ControlOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T3ControlOverhead(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "flat-ctl/dlv")
		b.ReportMetric(lastCell(b, t, 2), "hier-ctl/dlv")
	}
}

func BenchmarkT4ViewChangeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T4ViewChangeLatency(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "member-crash-ms")
		b.ReportMetric(lastCell(b, t, 3), "coord-crash-ms")
	}
}

func BenchmarkT5PlayoutLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T5PlayoutLoss(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "fixed-late-%")
		b.ReportMetric(lastCell(b, t, 2), "adaptive-late-%")
	}
}

func BenchmarkT6EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T6EndToEnd(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "hier-mean-ms")
		b.ReportMetric(lastCell(b, t, 4), "hier-ctl/dlv")
	}
}

func BenchmarkT7RecoveryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T7RecoveryOverhead(benchOpts)
		// Last row is the suppressed configuration at the largest size.
		b.ReportMetric(lastCell(b, t, 3), "sup-req/loss")
		b.ReportMetric(lastCell(b, t, 4), "sup-repair/loss")
	}
}

func BenchmarkT8Formation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T8Formation(benchOpts)
		// Rows pair auto/static per size; quote the largest auto row.
		auto := t.Rows[len(t.Rows)-2]
		b.ReportMetric(cellFloat(b, auto[3]), "formation-rounds")
		b.ReportMetric(cellFloat(b, auto[4]), "tree-cost-ms")
	}
}

func BenchmarkT9BulkDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T9BulkDissemination(benchOpts)
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(cellFloat(b, last[6]), "max-share-%")
		b.ReportMetric(cellFloat(b, last[7]), "missing")
	}
}

func BenchmarkT10Overload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.T10Overload(benchOpts)
		// Rows: no-fault, unbounded, flow-throttle, flow-evict. The
		// flow-throttle hist-peak is the bounded sender memory the
		// stability window is accountable for; the unbounded row is the
		// ablation it must stay well under.
		throttle, unbounded := t.Rows[2], t.Rows[1]
		b.ReportMetric(cellFloat(b, throttle[1]), "sender-history-peak")
		b.ReportMetric(cellFloat(b, throttle[2]), "flow-occ-peak")
		b.ReportMetric(cellFloat(b, unbounded[1]), "unbounded-history-peak")
	}
}

func BenchmarkF1LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F1LatencyCDF(benchOpts)
		s := f.Series[len(f.Series)-1] // highest loss
		b.ReportMetric(s.X[len(s.X)-1], "p100@10%loss-ms")
	}
}

func BenchmarkF2LatencyVsLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F2LatencyVsLoss(benchOpts)
		s := f.Series[1] // fifo
		b.ReportMetric(s.Y[len(s.Y)-1], "fifo@10%loss-ms")
	}
}

func BenchmarkF3AdaptivePlayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F3AdaptivePlayout(benchOpts)
		for _, s := range f.Series {
			if s.Name == "delay K=4" {
				b.ReportMetric(s.Y[len(s.Y)-1], "delay-k4-ms")
			}
		}
	}
}

func BenchmarkF4MediaSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F4MediaSkew(benchOpts)
		noSync, withSync := f.Series[0], f.Series[1]
		b.ReportMetric(noSync.Y[len(noSync.Y)-1], "nosync-final-ms")
		b.ReportMetric(withSync.Y[len(withSync.Y)-1], "sync-final-ms")
	}
}

func BenchmarkF5Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F5Scalability(benchOpts)
		for _, s := range f.Series {
			if s.Name == "hierarchical" {
				b.ReportMetric(s.Y[len(s.Y)-1], "hier-ms")
			}
			if s.Name == "flat" {
				b.ReportMetric(s.Y[len(s.Y)-1], "flat-ms")
			}
		}
	}
}

func BenchmarkF6ThroughputVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.F6ThroughputVsSize(benchOpts)
		s := f.Series[0]
		b.ReportMetric(s.Y[len(s.Y)-1], "MB/s@16KiB")
	}
}

func BenchmarkAblationClusterSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationClusterSize(benchOpts)
		b.ReportMetric(lastCell(b, t, 2), "ctl/dlv@max-cluster")
	}
}

func BenchmarkAblationNackVsAck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationNackVsAck(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "acks/mcast")
		b.ReportMetric(lastCell(b, t, 2), "nacks/mcast")
	}
}

func BenchmarkAblationFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationFEC(benchOpts)
		b.ReportMetric(lastCell(b, t, 1), "plain-miss-%")
		b.ReportMetric(lastCell(b, t, 2), "fec-miss-%")
	}
}
