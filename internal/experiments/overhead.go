package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/wire"
)

// flatAndHier runs p on one flat group and on the hierarchy with clusters
// of the given size.
func flatAndHier(p groupParams, cluster int) (flat, hr *chaos.GroupResult) {
	flat = runGroup(p)
	p.cluster = cluster
	return flat, runGroup(p)
}

// controlShare computes control datagrams (everything except the payload
// data/retransmission kinds) per delivered application message.
func controlShare(r *chaos.GroupResult) (perDelivery float64, totalPerDelivery float64) {
	if r.Delivered == 0 {
		return 0, 0
	}
	data := r.Net.SentByKind[wire.KindData] + r.Net.SentByKind[wire.KindRetrans]
	ctl := r.Net.TotalSent() - data
	return float64(ctl) / float64(r.Delivered),
		float64(r.Net.TotalSent()) / float64(r.Delivered)
}

// T3ControlOverhead reproduces table T3: control datagrams per delivered
// message, flat group versus hierarchy with 8-node clusters.
func T3ControlOverhead(o Options) Table {
	sizes := []int{16, 32, 64, 128}
	per := 40
	cluster := 8
	if o.Quick {
		sizes = []int{16, 32}
		per = 12
	}
	t := Table{
		ID:    "T3",
		Title: fmt.Sprintf("Control overhead: flat vs hierarchical (cluster=%d)", cluster),
		Columns: []string{"n", "flat ctl/dlv", "hier ctl/dlv",
			"flat total/dlv", "hier total/dlv"},
	}
	for _, n := range sizes {
		flat, hr := flatAndHier(groupParams{
			n: n, senders: 4, perSend: per,
			gap: 10 * time.Millisecond, link: lanLink(0.01), seed: o.seed(700 + int64(n)),
		}, cluster)
		fc, ft := controlShare(flat)
		hc, ht := controlShare(hr)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ratio(fc), ratio(hc), ratio(ft), ratio(ht),
		})
	}
	return t
}

// F5Scalability reproduces figure F5: mean delivery latency versus group
// size for the flat and hierarchical organizations.
func F5Scalability(o Options) Figure {
	sizes := []int{8, 16, 32, 64, 96, 128}
	per := 30
	cluster := 8
	if o.Quick {
		sizes = []int{8, 16, 32}
		per = 10
	}
	f := Figure{
		ID:     "F5",
		Title:  fmt.Sprintf("Scalability: latency vs group size (cluster=%d)", cluster),
		XLabel: "group size",
		YLabel: "mean delivery latency (ms)",
	}
	flatS := Series{Name: "flat"}
	hierS := Series{Name: "hierarchical"}
	flatCtl := Series{Name: "flat ctl/dlv"}
	hierCtl := Series{Name: "hier ctl/dlv"}
	for _, n := range sizes {
		flat, hr := flatAndHier(groupParams{
			n: n, senders: 4, perSend: per,
			gap: 10 * time.Millisecond, link: lanLink(0.01), seed: o.seed(800 + int64(n)),
		}, cluster)
		flatS.X = append(flatS.X, float64(n))
		flatS.Y = append(flatS.Y, flat.Latency.Mean())
		hierS.X = append(hierS.X, float64(n))
		hierS.Y = append(hierS.Y, hr.Latency.Mean())
		fc, _ := controlShare(flat)
		hc, _ := controlShare(hr)
		flatCtl.X = append(flatCtl.X, float64(n))
		flatCtl.Y = append(flatCtl.Y, fc)
		hierCtl.X = append(hierCtl.X, float64(n))
		hierCtl.Y = append(hierCtl.Y, hc)
	}
	f.Series = []Series{flatS, hierS, flatCtl, hierCtl}
	return f
}

// T6EndToEnd reproduces table T6: the end-to-end architecture comparison
// on a conference-style workload at n=96.
func T6EndToEnd(o Options) Table {
	n, per, cluster := 96, 50, 8
	if o.Quick {
		n, per = 24, 15
	}
	t := Table{
		ID:    "T6",
		Title: fmt.Sprintf("End-to-end comparison, conference workload (n=%d)", n),
		Columns: []string{"organization", "mean lat (ms)", "p99 lat (ms)",
			"delivery rate", "ctl/dlv", "total dgrams/dlv"},
	}
	flat, hr := flatAndHier(groupParams{
		n: n, senders: 6, perSend: per,
		gap: 20 * time.Millisecond, link: lanLink(0.01), seed: o.seed(900),
	}, cluster)
	add := func(name string, r *chaos.GroupResult) {
		ctl, tot := controlShare(r)
		t.Rows = append(t.Rows, []string{
			name,
			msf(r.Latency.Mean()),
			msf(r.Latency.Percentile(99)),
			fmt.Sprintf("%.3f", float64(r.Delivered)/float64(r.Expected)),
			ratio(ctl), ratio(tot),
		})
	}
	add("flat", flat)
	add(fmt.Sprintf("hier(c=%d)", cluster), hr)
	return t
}

// AblationClusterSize sweeps the hierarchy's cluster size at fixed n,
// the design-choice ablation DESIGN.md calls out.
func AblationClusterSize(o Options) Table {
	n := 64
	clusters := []int{4, 8, 16, 32, 64}
	per := 30
	if o.Quick {
		n = 32
		clusters = []int{4, 8, 16, 32}
		per = 10
	}
	t := Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Ablation: cluster size sensitivity (n=%d)", n),
		Columns: []string{"cluster", "mean lat (ms)", "ctl/dlv", "total/dlv"},
	}
	for _, c := range clusters {
		r := runGroup(groupParams{
			n: n, cluster: c, senders: 4, perSend: per,
			gap: 10 * time.Millisecond, link: lanLink(0.01),
			seed: o.seed(950),
		})
		ctl, tot := controlShare(r)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c), msf(r.Latency.Mean()), ratio(ctl), ratio(tot),
		})
	}
	return t
}
