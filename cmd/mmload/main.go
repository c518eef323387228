// Command mmload is the repository's benchmark: six named workloads that
// drive the public API over loopback UDP and the in-process fabric, and
// the engines under the simulator; eight end-to-end metrics every
// workload reports; and a per-layer budget taken from a second, traced
// run. It checks what was delivered in the same run and exits non-zero
// when anything is wrong. README.md in this directory defines every name.
//
//	mmload -workload all -seed 1 -out DIR      every workload, untraced then traced
//	mmload -workload all -runs 3 -out DIR      ... repeated, medians and quartiles stored
//	mmload -compare A/results.json B/results.json
//	mmload -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON line (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	run  func(*runCtx) error
}

// workloads lists the benchmark's workloads; the names are fixed.
var workloads = []workloadDef{
	{"fifo-small-udp",
		"64 B FIFO on loopback UDP: per-message fixed cost (API hand-off, wire, rmcast fast path, sendmmsg) dominates; ordering, recovery, bulk and media idle",
		func(rc *runCtx) error { return runMessaging(rc, fifoSmallUDP) }},
	{"total-1k-udp",
		"1 KiB total order from all four nodes: latency and rate are set by the sequencer round trip and the tick as coalescing window, not per-message cost",
		func(rc *runCtx) error { return runMessaging(rc, total1kUDP) }},
	{"conference-lossy-fabric",
		"the paper's application on a lossy jittery fabric: no syscalls; loss recovery, rtx, fec, frag, msync and qos do the work",
		runConference},
	{"bulk-1m-udp",
		"1 MiB objects over loopback UDP: byte-dominated bulk scatter/pull, Reed-Solomon and large-datagram bursts; rmcast carries only the manifest",
		runBulk},
	{"sim-hier-64",
		"64 hierarchical engines in 8 clusters under the seeded simulator: the headline mechanism at a size two cores cannot host live; counts repeat exactly",
		runSimHier},
	{"sim-crash-16",
		"coordinator crash in a 16-node total-order group under the simulator: failure detection, flush and view install with senders on a schedule during the fault",
		runSimCrash},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizing holds everything that scales a run; the self-test shrinks it.
type sizing struct {
	warm   time.Duration // live warm-up per started group, excluded from every metric
	setups int           // groups started per run; setup_s is the median set-up time
	drain  time.Duration // bound on the end-of-run wait for stragglers
	// lateShare is the share of a run's open-loop time by which the
	// generator may fall behind its schedule before the run counts as
	// failed; 0 (the self-test, which compares no wall-clock figure)
	// disables it.
	lateShare float64

	objectSize int // bulk-1m-udp

	hierScenarios                       int // seeds simulated per run; the median is reported
	hierNodes, hierCluster, hierSenders int
	hierRate                            float64       // msg/s per sender
	hierVirtual                         time.Duration // virtual sending time

	crashScenarios        int
	crashNodes, crashMsgs int
	crashWindow, crashAt  time.Duration
}

var fullSizing = sizing{
	warm: 300 * time.Millisecond, setups: 5, drain: 3 * time.Second, lateShare: 0.05,
	objectSize:    1 << 20,
	hierScenarios: 6, hierNodes: 64, hierCluster: 8, hierSenders: 8, hierRate: 100, hierVirtual: 10 * time.Second,
	crashScenarios: 12, crashNodes: 16, crashMsgs: 4000, crashWindow: 10 * time.Second, crashAt: 5 * time.Second,
}

// result is the outcome of one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	LayerTable string             `json:"layer_table,omitempty"`
}

// runCtx carries one run's inputs and collects its outcome.
type runCtx struct {
	seed   int64
	dur    time.Duration // measured time
	traced bool
	sz     sizing
	base   time.Time // origin of every ns-since-base stamp in the run
	out    *result
	tr     *tracer // traced runs
	spans  []span
}

// failN counts n failed operations with one explanation.
func (rc *runCtx) failN(n int, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	rc.out.Failed += n
	if len(rc.out.Failures) < 16 {
		rc.out.Failures = append(rc.out.Failures, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) failf(format string, args ...any) { rc.failN(1, format, args...) }

// checkNoEvictions fails the run if the membership layer evicted anyone
// over the measured phases: no live workload injects a fault.
func (rc *runCtx) checkNoEvictions(counters map[string]float64) {
	if ev := counters["member.evictions"]; ev != 0 {
		rc.failf("member.evictions = %v on a live workload", ev)
	}
}

// checkLate fails the run if the generator's worst lateness exceeds
// sz.lateShare of the open-loop time it covered.
func (rc *runCtx) checkLate(lateMaxMs float64, openLoop time.Duration) {
	if rc.sz.lateShare > 0 && lateMaxMs > rc.sz.lateShare*float64(openLoop)/1e6 {
		rc.failf("generator ran %.1f ms late, more than %.0f%% of its open-loop time", lateMaxMs, 100*rc.sz.lateShare)
	}
}

// runOne runs one workload once and returns its result and spans.
func runOne(w workloadDef, seed int64, dur time.Duration, traced bool, sz sizing) (*result, []span) {
	rc := &runCtx{
		seed: seed, dur: dur, traced: traced, sz: sz, base: time.Now(),
		out: &result{Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Traced: traced, Metrics: make(map[string]float64)},
	}
	if err := w.run(rc); err != nil {
		rc.failf("%s: %v", w.name, err)
	}
	// Every run prints every metric of its table; one that does not
	// apply reads 0.
	for _, d := range metricTable(traced) {
		if _, ok := rc.out.Metrics[d.Name]; !ok {
			rc.out.Metrics[d.Name] = 0
		}
	}
	if rc.out.Attempted == 0 {
		rc.out.Attempted = 1
	}
	return rc.out, rc.spans
}

// printMetrics writes the run's metrics by name with units, in table
// order.
func printMetrics(w io.Writer, r *result) {
	for _, d := range metricTable(r.Traced) {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.LayerTable != "" {
		fmt.Fprint(w, r.LayerTable)
	}
}

// contractLine is the one JSON object a BENCHMARK.json run ends with.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := metricTable(r.Traced)
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(buf)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for payloads, arrival schedules, fabric, simulator and object contents")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default 16)")
	trace := flag.Int("trace", -1, "BENCHMARK.json mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	out := flag.String("out", "", "directory for results.json and <workload>.trace.json")
	runs := flag.Int("runs", 1, "repeat each workload with seeds seed, seed+1, ...; store median and quartiles")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mmload: -compare needs two results.json files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	dur := time.Duration(*seconds) * time.Second
	if dur <= 0 {
		dur = 16 * time.Second
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "mmload: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{w}
	}

	if *trace >= 0 {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "mmload: -trace runs one workload: name it with -workload")
			return 2
		}
		r, _ := runOne(selected[0], *seed, dur, *trace == 1, fullSizing)
		printMetrics(os.Stderr, r)
		fmt.Println(contractLine(r))
		if r.Failed > 0 {
			return 1
		}
		return 0
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
			return 1
		}
	}
	file := resultsFile{Seed: *seed, Seconds: dur.Seconds(), Runs: *runs}
	failed := 0
	for _, w := range selected {
		var untraced []*result
		for i := 0; i < *runs; i++ {
			r, _ := runOne(w, *seed+int64(i), dur, false, fullSizing)
			fmt.Printf("%s (seed %d, %.0f s, untraced)\n", w.name, r.Seed, r.Seconds)
			printMetrics(os.Stdout, r)
			failed += r.Failed
			untraced = append(untraced, r)
		}
		tr, spans := runOne(w, *seed, dur, true, fullSizing)
		fmt.Printf("%s (seed %d, %.0f s, traced at half length)\n", w.name, tr.Seed, tr.Seconds)
		printMetrics(os.Stdout, tr)
		failed += tr.Failed
		file.Workloads = append(file.Workloads, summarize(w.name, untraced, tr))
		if *out != "" {
			if err := writeTrace(filepath.Join(*out, w.name+".trace.json"), w.name, *seed, spans); err != nil {
				fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
				return 1
			}
		}
	}
	if *out != "" {
		if err := file.write(filepath.Join(*out, "results.json")); err != nil {
			fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d operations failed\n", failed)
		return 1
	}
	return 0
}
