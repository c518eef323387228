package experiments

import (
	"fmt"
	"strings"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/rmcast"
)

// groupParams parameterizes one measured group run.
type groupParams struct {
	n int
	// cluster, when set, runs the static hierarchy with clusters of that
	// size instead of one flat group; ack runs the flat group on the
	// positive-acknowledgment baseline engine instead of rmcast.
	cluster  int
	ack      bool
	ordering rmcast.Ordering // defaults to FIFO
	senders  int
	perSend  int
	gap      time.Duration
	link     netsim.Link
	// domains groups receivers into correlated loss domains, as T7 does.
	domains int
	// stabilize is the engines' stability gossip period (0 = default).
	stabilize time.Duration
	payload   int
	// streams spreads each sender's messages round-robin over that many
	// stream labels; zero keeps every message on stream 0.
	streams int
	tail    time.Duration // after the last send; defaults to 5s
	seed    int64
}

// runGroup drives one group through a Poisson message workload and
// measures delivery latency at every member. Flat senders are the lowest
// IDs; hierarchical ones are spread across clusters. A run whose
// deliveries break no-creation, no-duplication or its ordering panics:
// the tables report only runs the chaos checkers pass.
func runGroup(p groupParams) *chaos.GroupResult {
	if p.senders <= 0 || p.senders > p.n {
		p.senders = p.n
	}
	if p.ordering == 0 {
		p.ordering = rmcast.FIFO
	}
	if p.tail == 0 {
		p.tail = 5 * time.Second
	}
	senders := chaos.NodeIDs(p.senders)
	cfg := rmcast.Config{Group: 1, Ordering: p.ordering, StabilizeEvery: p.stabilize}
	var newEngine chaos.NewEngine
	switch {
	case p.cluster > 0:
		newEngine = chaos.HierGroup(p.n, p.cluster, hier.Config{Ordering: p.ordering, StabilizeEvery: p.stabilize})
		for s := range senders {
			senders[s] = id.Node((s*p.cluster+1)%p.n + 1)
		}
	case p.ack:
		newEngine = chaos.FlatGroup(p.n, cfg, NewAck)
	default:
		newEngine = chaos.FlatGroup(p.n, cfg, rmcast.New)
	}
	r := chaos.RunGroup(chaos.GroupOptions{
		Net:       chaos.NetConfig{Seed: p.seed, Link: p.link, LossDomains: p.domains},
		Nodes:     p.n,
		Ordering:  p.ordering,
		New:       newEngine,
		Senders:   senders,
		PerSender: p.perSend,
		Gap:       p.gap,
		Payload:   p.payload,
		Streams:   p.streams,
		Tail:      p.tail,
	})
	if v := r.Safety(); len(v) > 0 {
		panic(fmt.Sprintf("experiments: seed %d broke delivery safety:\n%s", p.seed, strings.Join(v, "\n")))
	}
	return r
}

// lanLink is the baseline campus-LAN profile of the reconstruction: 1ms
// propagation, up to 2ms jitter.
func lanLink(loss float64) netsim.Link {
	return netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, Loss: loss}
}

var allOrderings = []rmcast.Ordering{rmcast.Unordered, rmcast.FIFO, rmcast.Causal, rmcast.Total}

// T1LatencyVsGroupSize reproduces table T1: mean (p99) delivery latency
// by group size for each ordering discipline.
func T1LatencyVsGroupSize(o Options) Table {
	sizes := []int{4, 8, 16, 32, 64}
	per := 50
	if o.Quick {
		sizes = []int{4, 8, 16}
		per = 15
	}
	t := Table{
		ID:    "T1",
		Title: "Delivery latency vs group size (ms, mean / p99), LAN profile",
		Columns: []string{"n", "unordered", "fifo", "causal", "total",
			"delivered"},
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		total := 0
		for _, ord := range allOrderings {
			r := runGroup(groupParams{
				n: n, ordering: ord, senders: 4, perSend: per,
				gap: 5 * time.Millisecond, link: lanLink(0),
				seed: o.seed(100 + int64(n)),
			})
			row = append(row, fmt.Sprintf("%s / %s",
				msf(r.Latency.Mean()), msf(r.Latency.Percentile(99))))
			total += r.Delivered
		}
		row = append(row, fmt.Sprintf("%d", total))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// T2ThroughputVsGroupSize reproduces table T2: sustained delivery
// throughput (deliveries per wall-clock second of simulation work) by
// group size and ordering — the protocol-efficiency measure available on
// a simulator substrate.
func T2ThroughputVsGroupSize(o Options) Table {
	sizes := []int{4, 8, 16, 32, 64}
	per := 80
	if o.Quick {
		sizes = []int{4, 8, 16}
		per = 20
	}
	t := Table{
		ID:      "T2",
		Title:   "Delivery throughput vs group size (deliveries / wall-second)",
		Columns: []string{"n", "unordered", "fifo", "causal", "total"},
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, ord := range allOrderings {
			r := runGroup(groupParams{
				n: n, ordering: ord, senders: 4, perSend: per,
				gap: 2 * time.Millisecond, link: lanLink(0),
				seed: o.seed(200 + int64(n)),
			})
			tput := float64(r.Delivered) / r.Wall.Seconds()
			row = append(row, fmt.Sprintf("%.0f", tput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// T2TotalOrderThroughput extends T2 along the pipelined-range redesign
// axis: sustained total-order delivery throughput of a 16-member group
// driving four media streams at high rate through the one sequencer. The
// hier row runs the same workload through the static hierarchical overlay
// for reference: the overlay's guarantee is FIFO per origin — it has no
// total-order plane, so it measures plain dissemination cost (the ceiling
// the flat ordered path is chasing).
func T2TotalOrderThroughput(o Options) Table {
	const n = 16
	const streams = 4
	senders, per := 4, 2000
	gap := 200 * time.Microsecond
	if o.Quick {
		per = 600
	}
	t := Table{
		ID: "T2b",
		Title: fmt.Sprintf(
			"Sustained total-order throughput, n=%d, %d streams (deliveries / wall-second)",
			n, streams),
		Columns: []string{"topology", "dlv/s", "delivered"},
	}
	row := func(name string, r *chaos.GroupResult) {
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.0f", float64(r.Delivered)/r.Wall.Seconds()),
			fmt.Sprintf("%d/%d", r.Delivered, r.Expected)})
	}
	row("flat (total)", runGroup(groupParams{
		n: n, ordering: rmcast.Total, senders: senders, perSend: per,
		gap: gap, link: lanLink(0), seed: o.seed(251), streams: streams,
	}))
	row("hier (fifo/origin)", runGroup(groupParams{
		n: n, cluster: 8, senders: senders, perSend: per,
		gap: gap, link: lanLink(0), seed: o.seed(255),
	}))
	return t
}

// F1LatencyCDF reproduces figure F1: the delivery-latency CDF of a
// 16-member causal group under increasing loss.
func F1LatencyCDF(o Options) Figure {
	losses := []float64{0, 0.01, 0.05, 0.10}
	n, per := 16, 60
	if o.Quick {
		n, per = 8, 20
	}
	f := Figure{
		ID:     "F1",
		Title:  fmt.Sprintf("Delivery latency CDF under loss (n=%d, causal)", n),
		XLabel: "latency (ms)",
		YLabel: "fraction delivered",
	}
	for _, loss := range losses {
		r := runGroup(groupParams{
			n: n, ordering: rmcast.Causal, senders: 4, perSend: per,
			gap: 5 * time.Millisecond, link: lanLink(loss),
			seed: o.seed(300),
		})
		cdf := r.Latency.CDF(20)
		s := Series{Name: fmt.Sprintf("loss=%.0f%%", loss*100)}
		for _, pt := range cdf {
			s.X = append(s.X, pt.Value)
			s.Y = append(s.Y, pt.Fraction)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// F2LatencyVsLoss reproduces figure F2: mean delivery latency as a
// function of datagram loss rate, per ordering.
func F2LatencyVsLoss(o Options) Figure {
	losses := []float64{0, 0.01, 0.02, 0.05, 0.10}
	n, per := 16, 40
	if o.Quick {
		n, per = 8, 15
	}
	f := Figure{
		ID:     "F2",
		Title:  fmt.Sprintf("Mean delivery latency vs loss rate (n=%d)", n),
		XLabel: "loss rate",
		YLabel: "mean latency (ms)",
	}
	for _, ord := range allOrderings {
		s := Series{Name: ord.String()}
		for _, loss := range losses {
			r := runGroup(groupParams{
				n: n, ordering: ord, senders: 4, perSend: per,
				gap: 5 * time.Millisecond, link: lanLink(loss),
				seed: o.seed(400),
			})
			s.X = append(s.X, loss)
			s.Y = append(s.Y, r.Latency.Mean())
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// F6ThroughputVsSize reproduces figure F6: delivered payload bandwidth as
// a function of message size (n=16, FIFO).
func F6ThroughputVsSize(o Options) Figure {
	sizes := []int{64, 256, 1024, 4096, 16384}
	n, per := 16, 50
	if o.Quick {
		n, per = 8, 15
	}
	f := Figure{
		ID:     "F6",
		Title:  fmt.Sprintf("Delivered payload bandwidth vs message size (n=%d, fifo)", n),
		XLabel: "message size (bytes)",
		YLabel: "MB delivered / wall-second",
	}
	s := Series{Name: "fifo"}
	lat := Series{Name: "mean latency (ms)"}
	for _, size := range sizes {
		r := runGroup(groupParams{
			n: n, ordering: rmcast.FIFO, senders: 4, perSend: per,
			gap: 5 * time.Millisecond, link: lanLink(0),
			payload: size, seed: o.seed(600),
		})
		mb := float64(r.Delivered) * float64(size) / (1 << 20) / r.Wall.Seconds()
		s.X = append(s.X, float64(size))
		s.Y = append(s.Y, mb)
		lat.X = append(lat.X, float64(size))
		lat.Y = append(lat.Y, r.Latency.Mean())
	}
	f.Series = []Series{s, lat}
	return f
}
