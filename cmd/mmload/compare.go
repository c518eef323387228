package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricSummary is one metric over a set of runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s metricSummary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

// workloadSummary is one workload's part of results.json.
type workloadSummary struct {
	Workload   string                   `json:"workload"`
	Attempted  int                      `json:"attempted"`
	Failed     int                      `json:"failed"`
	Failures   []string                 `json:"failures,omitempty"`
	EndToEnd   map[string]metricSummary `json:"end_to_end"`
	PerLayer   map[string]float64       `json:"per_layer"`
	LayerTable string                   `json:"layer_table,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Runs      int               `json:"runs"`
	Workloads []workloadSummary `json:"workloads"`
}

func (f resultsFile) write(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// summarize folds a workload's untraced runs and its traced run into one
// entry: median and quartiles per end-to-end metric, the per-layer values
// as measured.
func summarize(name string, untraced []*result, traced *result) workloadSummary {
	s := workloadSummary{
		Workload: name, EndToEnd: make(map[string]metricSummary),
		PerLayer: traced.Metrics, LayerTable: traced.LayerTable,
		Attempted: traced.Attempted, Failed: traced.Failed, Failures: traced.Failures,
	}
	for _, r := range untraced {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Failures = append(s.Failures, r.Failures...)
	}
	for _, d := range endToEnd {
		ms := metricSummary{Unit: d.Unit}
		for _, r := range untraced {
			ms.Values = append(ms.Values, r.Metrics[d.Name])
		}
		ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
		s.EndToEnd[d.Name] = ms
	}
	return s
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("read results: %w", err)
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("decode %s: %w", path, err)
	}
	return f, nil
}

// verdict judges one metric of B against baseline A: regressed when B's
// median is worse than A's by more than the bound (by anything at all for
// a count that repeats exactly), unresolved when A's own run-to-run
// spread exceeds the bound, ok otherwise. worse is B's change in the bad
// direction as a share of A's median.
func verdict(d metricDef, exact bool, a, b metricSummary) (v string, worse float64) {
	worse = ratio(b.Median-a.Median, a.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case exact && worse > 0:
		return "regressed", worse
	case exact:
		return "ok", worse
	case a.spread() > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints, per workload, one row per end-to-end metric with
// both medians, the change, the bound and a verdict. It returns 1 when
// any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
		return 2
	}
	inB := make(map[string]workloadSummary)
	for _, ws := range b.Workloads {
		inB[ws.Workload] = ws
	}
	fmt.Fprintf(w, "A = %s (base, %d runs)   B = %s (%d runs)\n", pathA, a.Runs, pathB, b.Runs)
	regressed := 0
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Workload]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Workload)
		fmt.Fprintf(w, "  %-24s %-6s %14s %14s %9s %8s %9s  %s\n",
			"metric", "unit", "A median", "B median", "B vs A", "bound", "A spread", "verdict")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			exact := exactMetric(wa.Workload, d.Name)
			v, _ := verdict(d, exact, ma, mb)
			if v == "regressed" {
				regressed++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "  %-24s %-6s %14.6g %14.6g %+8.2f%% %8s %8.2f%%  %s\n",
				d.Name, d.Unit, ma.Median, mb.Median, 100*ratio(mb.Median-ma.Median, ma.Median),
				bound, 100*ma.spread(), v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "  failed operations: A %d of %d, B %d of %d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	fmt.Fprintln(w, "every percentage is a share of A's median, the base")
	if regressed > 0 {
		return 1
	}
	return 0
}
