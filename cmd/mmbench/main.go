// Command mmbench regenerates the reconstructed evaluation of the paper:
// every table (T1-T10), every figure (F1-F6) and the cluster-size ablation
// (A1), printed as aligned text. The full run (no flags) reproduces the
// numbers recorded in EXPERIMENTS.md; -quick shrinks the sweeps for a
// fast smoke run.
//
// Usage:
//
//	mmbench [-quick] [-seed N] [-only T1,F5,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scalamedia/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	seed := flag.Int64("seed", 0, "seed offset (0 = EXPERIMENTS.md seeds)")
	only := flag.String("only", "", "comma-separated experiment IDs (default all)")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	type experiment struct {
		id  string
		run func() (render func())
	}
	table := func(f func(experiments.Options) experiments.Table) func() func() {
		return func() func() {
			t := f(opts)
			return func() { t.Render(os.Stdout) }
		}
	}
	figure := func(f func(experiments.Options) experiments.Figure) func() func() {
		return func() func() {
			fg := f(opts)
			return func() { fg.Render(os.Stdout) }
		}
	}
	all := []experiment{
		{"T1", table(experiments.T1LatencyVsGroupSize)},
		{"T2", table(experiments.T2ThroughputVsGroupSize)},
		{"T2B", table(experiments.T2TotalOrderThroughput)},
		{"T3", table(experiments.T3ControlOverhead)},
		{"T4", table(experiments.T4ViewChangeLatency)},
		{"T5", table(experiments.T5PlayoutLoss)},
		{"T6", table(experiments.T6EndToEnd)},
		{"T7", table(experiments.T7RecoveryOverhead)},
		{"T8", table(experiments.T8Formation)},
		{"T9", table(experiments.T9BulkDissemination)},
		{"T10", table(experiments.T10Overload)},
		{"F1", figure(experiments.F1LatencyCDF)},
		{"F2", figure(experiments.F2LatencyVsLoss)},
		{"F3", figure(experiments.F3AdaptivePlayout)},
		{"F4", figure(experiments.F4MediaSkew)},
		{"F5", figure(experiments.F5Scalability)},
		{"F6", figure(experiments.F6ThroughputVsSize)},
		{"A1", table(experiments.AblationClusterSize)},
		{"A2", table(experiments.AblationNackVsAck)},
		{"A3", table(experiments.AblationFEC)},
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		for id := range selected {
			found := false
			for _, e := range all {
				if e.id == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "mmbench: unknown experiment %q\n", id)
				return 2
			}
		}
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("scalamedia reconstructed evaluation (%s mode, seed offset %d)\n\n", mode, *seed)
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		render := e.run()
		render()
		fmt.Printf("  [%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
