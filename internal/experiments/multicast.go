package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/workload"
)

// flatResult aggregates one flat-group multicast run.
type flatResult struct {
	Latencies *stats.Histogram // per-delivery latency, milliseconds
	Net       netsim.Stats
	Wall      time.Duration
	Delivered int
	Expected  int
	// Requests is the loss-recovery request events the engines sent
	// (rmcast.Counters.NacksSent summed; runFlat only).
	Requests uint64
}

// flatParams parameterizes runFlat.
type flatParams struct {
	n        int
	ordering rmcast.Ordering
	senders  int
	perSend  int
	gap      time.Duration
	link     netsim.Link
	payload  int
	seed     int64
	// streams spreads each sender's messages round-robin over that many
	// stream labels; zero keeps every message on stream 0.
	streams int
}

// runFlat drives one flat reliable-multicast group through a Poisson-ish
// message workload and measures delivery latency at every member.
func runFlat(p flatParams) flatResult {
	if p.senders <= 0 || p.senders > p.n {
		p.senders = p.n
	}
	if p.payload <= 0 {
		p.payload = 64
	}
	sim := netsim.New(netsim.Config{
		Seed:    p.seed,
		Profile: func(_, _ id.Node) netsim.Link { return p.link },
	})

	var members []id.Node
	for i := 1; i <= p.n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)

	type sendKey struct {
		sender id.Node
		seq    uint64
	}
	sentAt := make(map[sendKey]time.Time)
	lat := &stats.Histogram{}
	delivered := 0

	engines := make(map[id.Node]*rmcast.Engine, p.n)
	for _, m := range members {
		m := m
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng := rmcast.New(env, rmcast.Config{
				Group:    1,
				Ordering: p.ordering,
				OnDeliver: func(d rmcast.Delivery) {
					delivered++
					if t0, ok := sentAt[sendKey{d.Sender, d.Seq}]; ok {
						lat.ObserveDuration(env.Now().Sub(t0))
					}
				},
			})
			eng.SetView(view)
			engines[m] = eng
			return eng
		})
	}

	payload := workload.New(p.seed + 7).Payload(p.payload)
	var lastSend time.Duration
	for s := 0; s < p.senders; s++ {
		sender := members[s]
		arrivals := workload.Arrivals(p.seed+int64(s)*31, p.gap, 10*time.Millisecond, p.perSend)
		for _, at := range arrivals {
			at := at
			if at > lastSend {
				lastSend = at
			}
			sim.At(at, func() {
				eng := engines[sender]
				seq := eng.Counters().Sent + 1
				sentAt[sendKey{sender, seq}] = sim.Now()
				stream := id.Stream(0)
				if p.streams > 1 {
					stream = id.Stream(seq % uint64(p.streams))
				}
				_ = eng.MulticastStream(stream, payload)
			})
		}
	}

	start := time.Now()
	sim.Run(lastSend + 5*time.Second)
	wall := time.Since(start)

	r := flatResult{
		Latencies: lat,
		Net:       sim.Stats(),
		Wall:      wall,
		Delivered: delivered,
		Expected:  p.senders * p.perSend * p.n,
	}
	for _, eng := range engines {
		r.Requests += eng.Counters().NacksSent
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
			r := runFlat(flatParams{
				n: n, ordering: ord, senders: 4, perSend: per,
				gap: 5 * time.Millisecond, link: lanLink(0),
				seed: o.seed(100 + int64(n)),
			})
			row = append(row, fmt.Sprintf("%s / %s",
				msf(r.Latencies.Mean()), msf(r.Latencies.Percentile(99))))
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
			r := runFlat(flatParams{
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
	row := func(name string, r flatResult) {
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.0f", float64(r.Delivered)/r.Wall.Seconds()),
			fmt.Sprintf("%d/%d", r.Delivered, r.Expected)})
	}
	row("flat (total)", runFlat(flatParams{
		n: n, ordering: rmcast.Total, senders: senders, perSend: per,
		gap: gap, link: lanLink(0), seed: o.seed(251), streams: streams,
	}))
	row("hier (fifo/origin)", runHier(hierParams{
		n: n, clusterSize: 8, senders: senders, perSend: per,
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
		r := runFlat(flatParams{
			n: n, ordering: rmcast.Causal, senders: 4, perSend: per,
			gap: 5 * time.Millisecond, link: lanLink(loss),
			seed: o.seed(300),
		})
		cdf := r.Latencies.CDF(20)
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
			r := runFlat(flatParams{
				n: n, ordering: ord, senders: 4, perSend: per,
				gap: 5 * time.Millisecond, link: lanLink(loss),
				seed: o.seed(400),
			})
			s.X = append(s.X, loss)
			s.Y = append(s.Y, r.Latencies.Mean())
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
		r := runFlat(flatParams{
			n: n, ordering: rmcast.FIFO, senders: 4, perSend: per,
			gap: 5 * time.Millisecond, link: lanLink(0),
			payload: size, seed: o.seed(600),
		})
		mb := float64(r.Delivered) * float64(size) / (1 << 20) / r.Wall.Seconds()
		s.X = append(s.X, float64(size))
		s.Y = append(s.Y, mb)
		lat.X = append(lat.X, float64(size))
		lat.Y = append(lat.Y, r.Latencies.Mean())
	}
	f.Series = []Series{s, lat}
	return f
}
