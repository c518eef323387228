package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/rtx"
	"scalamedia/internal/wire"
)

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
		params := groupParams{
			n: n, ordering: rmcast.FIFO, senders: 4, perSend: per,
			gap: 10 * time.Millisecond, link: lanLink(loss),
			seed: o.seed(1500 + int64(n)),
		}
		nack := runGroup(params)
		params.ack = true
		ack := runGroup(params)
		// The implosion metric: feedback per multicast. The ACK design is
		// counted in KindAck datagrams at the senders, which grow with
		// n-1. The NACK design is counted in repair-request events
		// (Counters.NacksSent, one per multicast KindRepairReq, as T7
		// counts them), which follow the loss rate, not the group size.
		mcasts := float64(4 * per)
		ackPerM := float64(ack.Net.SentByKind[wire.KindAck]) / mcasts
		var requests uint64
		for _, nt := range nack.Nodes {
			requests += nt.Recovery.NacksSent
		}
		nackPerM := float64(requests) / mcasts
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ratio(ackPerM), ratio(nackPerM),
			msf(nack.Latency.Mean()), msf(ack.Latency.Mean()),
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
	cbr := func(spec media.StreamSpec) media.Source { return media.NewCBR(spec, 160, packets) }
	return runMedia(netsim.Link{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: loss}, cbr,
		rtx.Config{Mode: rtx.FixedDelay, PlayoutDelay: 120 * time.Millisecond, FECBlock: k}, seed)
}
