package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/rtx"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
	"scalamedia/internal/workload"
)

// runAckFlat mirrors runFlat with the positive-acknowledgment baseline
// engine.
func runAckFlat(p flatParams) flatResult {
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
	engines := make(map[id.Node]*AckEngine, p.n)
	for _, m := range members {
		m := m
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng := NewAck(env, rmcast.Config{
				Group: 1,
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
				_ = eng.Multicast(payload)
			})
		}
	}
	start := time.Now()
	sim.Run(lastSend + 5*time.Second)
	return flatResult{
		Latencies: lat,
		Net:       sim.Stats(),
		Wall:      time.Since(start),
		Delivered: delivered,
		Expected:  p.senders * p.perSend * p.n,
	}
}

// AblationNackVsAck compares the NACK-based design against the
// positive-acknowledgment baseline: control datagrams per delivery and
// latency, by group size.
func AblationNackVsAck(o Options) Table {
	sizes := []int{4, 8, 16, 32, 64}
	per := 40
	loss := 0.02
	if o.Quick {
		sizes = []int{4, 8, 16}
		per = 12
	}
	t := Table{
		ID:    "A2",
		Title: fmt.Sprintf("Ablation: NACK vs ACK loss recovery (loss %.0f%%)", loss*100),
		Columns: []string{"n", "acks/mcast (ack)", "requests/mcast (nack)",
			"nack lat (ms)", "ack lat (ms)", "nack dlv", "ack dlv"},
	}
	for _, n := range sizes {
		params := flatParams{
			n: n, ordering: rmcast.FIFO, senders: 4, perSend: per,
			gap: 10 * time.Millisecond, link: lanLink(loss),
			seed: o.seed(1500 + int64(n)),
		}
		nack := runFlat(params)
		ack := runAckFlat(params)
		// The implosion metric: feedback per multicast. The ACK design is
		// counted in KindAck datagrams at the senders, which grow with
		// n-1. The NACK design is counted in repair-request events
		// (Counters.NacksSent, one per multicast KindRepairReq, as T7
		// counts them), which follow the loss rate, not the group size.
		mcasts := float64(4 * per)
		ackPerM := float64(ack.Net.SentByKind[wire.KindAck]) / mcasts
		nackPerM := float64(nack.Requests) / mcasts
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ratio(ackPerM), ratio(nackPerM),
			msf(nack.Latencies.Mean()), msf(ack.Latencies.Mean()),
			fmt.Sprintf("%d/%d", nack.Delivered, nack.Expected),
			fmt.Sprintf("%d/%d", ack.Delivered, ack.Expected),
		})
	}
	return t
}

// AblationFEC measures the media FEC trade: late+lost frames and packet
// overhead with FEC off and on, across loss rates.
func AblationFEC(o Options) Table {
	losses := []float64{0.01, 0.03, 0.05, 0.10}
	packets := 600
	const k = 4
	if o.Quick {
		losses = []float64{0.03, 0.10}
		packets = 200
	}
	t := Table{
		ID:    "A3",
		Title: fmt.Sprintf("Ablation: media FEC (XOR, K=%d) vs plain under loss", k),
		Columns: []string{"loss %", "plain miss %", "fec miss %", "fec recovered",
			"fec pkt overhead"},
	}
	for _, loss := range losses {
		plain := runFECMedia(0, loss, packets, o.seed(1600))
		fecOn := runFECMedia(k, loss, packets, o.seed(1600))
		missRate := func(st rtx.Stats, sent int) float64 {
			missing := uint64(sent) - st.Played
			return float64(missing) / float64(sent) * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", loss*100),
			fmt.Sprintf("%.1f", missRate(plain.stats, plain.sent)),
			fmt.Sprintf("%.1f", missRate(fecOn.stats, fecOn.sent)),
			fmt.Sprintf("%d", fecOn.stats.Recovered),
			fmt.Sprintf("%.0f%%", 100.0/float64(k)),
		})
	}
	return t
}

// runFECMedia streams CBR audio across a lossy link with optional FEC.
func runFECMedia(k int, loss float64, packets int, seed int64) playoutResult {
	spec := mediaAudioSpec()
	sim := netsim.New(netsim.Config{
		Seed:    seed,
		Profile: netsim.LANProfile(2*time.Millisecond, time.Millisecond, loss),
	})
	var sender *rtx.Sender
	var recv *rtx.Receiver
	sim.AddNode(1, func(env proto.Env) proto.Handler {
		sender = rtx.NewSender(env, 1, spec)
		sender.SetPeers([]id.Node{2})
		if k > 0 {
			_ = sender.SetFEC(k)
		}
		return proto.NewMux()
	})
	sim.AddNode(2, func(env proto.Env) proto.Handler {
		recv = rtx.NewReceiver(env, rtx.Config{
			Group: 1, Stream: spec.ID, Spec: spec,
			Mode: rtx.FixedDelay, PlayoutDelay: 120 * time.Millisecond,
			FECBlock: k,
		})
		return recv
	})
	src := mediaCBR(spec, packets)
	var last time.Duration
	sent := 0
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		frame := f
		sent++
		at := 10*time.Millisecond + frame.Capture
		if at > last {
			last = at
		}
		sim.At(at, func() { sender.Send(frame) })
	}
	sim.Run(last + 2*time.Second)
	return playoutResult{stats: recv.Stats(), sent: sent}
}
