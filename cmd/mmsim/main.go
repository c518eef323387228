// Command mmsim runs one custom reliable-multicast simulation and prints
// a summary: delivery latency statistics and per-kind datagram counts.
// It is the exploratory companion to cmd/mmbench's fixed experiment
// suite, and a flag front end over the same group builder
// (chaos.RunGroup): every run's deliveries pass the chaos safety checks.
//
//	mmsim -n 32 -ordering causal -loss 0.05 -msgs 200 -senders 4
//	mmsim -n 64 -hier -cluster 8 -loss 0.02
//
// Flags that describe no runnable group exit with status 2: a group or
// sender count below 1, a payload too short for its 16-byte key, fewer
// messages than senders, and -hier with causal or total ordering (the
// overlay orders only within a cluster). A run that breaks delivery
// safety exits with status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 16, "group size")
	orderingName := fs.String("ordering", "fifo", "unordered|fifo|causal|total")
	loss := fs.Float64("loss", 0.01, "datagram loss probability")
	delay := fs.Duration("delay", time.Millisecond, "link propagation delay")
	jitter := fs.Duration("jitter", 2*time.Millisecond, "max link jitter")
	bandwidth := fs.Float64("bandwidth", 0, "link bandwidth in bytes/s (0 = unlimited)")
	msgs := fs.Int("msgs", 100, "total multicasts")
	senders := fs.Int("senders", 4, "number of sending members")
	gap := fs.Duration("gap", 10*time.Millisecond, "mean inter-send gap per sender")
	payload := fs.Int("payload", 64, "payload bytes (at least 16)")
	seed := fs.Int64("seed", 1, "simulation seed")
	hierMode := fs.Bool("hier", false, "use the hierarchical organization")
	cluster := fs.Int("cluster", 8, "cluster size in -hier mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mmsim: "+format+"\n", a...)
		fs.Usage()
		return 2
	}

	var ordering rmcast.Ordering
	for o := rmcast.Unordered; o <= rmcast.Total; o++ {
		if o.String() == *orderingName {
			ordering = o
		}
	}
	*senders = min(*senders, *n)
	switch {
	case ordering == 0:
		return usage("unknown ordering %q", *orderingName)
	case *n < 1:
		return usage("-n must be at least 1")
	case *senders < 1:
		return usage("-senders must be at least 1")
	case *msgs < *senders:
		return usage("-msgs must be at least the %d senders", *senders)
	case *payload < 16:
		return usage("-payload must be at least 16 bytes")
	case *hierMode && *cluster < 1:
		return usage("-cluster must be at least 1")
	case *hierMode && (ordering == rmcast.Causal || ordering == rmcast.Total):
		return usage("-hier orders only within a cluster: use -ordering fifo or unordered")
	}

	newEngine := chaos.FlatGroup(*n, rmcast.Config{Group: 1, Ordering: ordering}, rmcast.New)
	mode := "flat"
	if *hierMode {
		newEngine = chaos.HierGroup(*n, *cluster, hier.Config{Ordering: ordering})
		mode = fmt.Sprintf("hier(cluster=%d)", *cluster)
	}
	// Senders spread evenly over the member IDs.
	from := make([]id.Node, *senders)
	for s := range from {
		from[s] = id.Node(s*(*n / *senders) + 1)
	}
	r := chaos.RunGroup(chaos.GroupOptions{
		Net: chaos.NetConfig{
			Seed: *seed,
			Link: netsim.Link{Delay: *delay, Jitter: *jitter, Loss: *loss, Bandwidth: *bandwidth},
		},
		Nodes:     *n,
		Ordering:  ordering,
		New:       newEngine,
		Senders:   from,
		PerSender: *msgs / *senders,
		Gap:       *gap,
		Payload:   *payload,
		Tail:      5 * time.Second,
	})

	fmt.Fprintf(stdout, "mmsim: n=%d %s ordering=%s loss=%.1f%% delay=%v jitter=%v\n",
		*n, mode, ordering, *loss*100, *delay, *jitter)
	fmt.Fprintf(stdout, "  deliveries: %d / %d expected (%.1f%%)\n",
		r.Delivered, r.Expected, 100*float64(r.Delivered)/float64(r.Expected))
	fmt.Fprintf(stdout, "  latency ms: mean=%.2f p50=%.2f p99=%.2f max=%.2f\n",
		r.Latency.Mean(), r.Latency.Percentile(50), r.Latency.Percentile(99), r.Latency.Max())

	st := r.Net
	fmt.Fprintf(stdout, "  datagrams (%d total, %d dropped):\n", st.TotalSent(), st.Dropped)
	kinds := make([]wire.Kind, 0, len(st.SentByKind))
	for k := range st.SentByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(stdout, "    %-12s %10d  (%d bytes)\n", k, st.SentByKind[k], st.BytesByKind[k])
	}
	fmt.Fprintf(stdout, "  simulated %v of virtual time in %v of wall time\n",
		r.Simulated, r.Wall.Round(time.Millisecond))
	if v := r.Safety(); len(v) > 0 {
		fmt.Fprintf(stderr, "mmsim: %d delivery safety violation(s):\n", len(v))
		for _, line := range v {
			fmt.Fprintf(stderr, "  %s\n", line)
		}
		return 1
	}
	return 0
}
