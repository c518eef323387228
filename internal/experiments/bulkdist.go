package experiments

import (
	"bytes"
	"fmt"
	"time"

	"scalamedia/internal/bulk"
	"scalamedia/internal/chaos"
	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/workload"
)

// T9 fixes the bulk-dissemination regime: a 5%-loss LAN with correlated
// loss domains (one drawn loss strands a whole subtree of receivers, as
// under T7) and the default raptorcast geometry from internal/bulk.
const (
	t9Loss    = 0.05
	t9Domains = 16
	t9Tail    = 30 * time.Second
)

// bulkDistResult aggregates one T9 run.
type bulkDistResult struct {
	// Complete counts members holding the exact object; Members counts
	// the receivers expected to (origin included, crashed relay not).
	Complete, Members int
	// MeanBytes and MaxBytes are transmitted bytes per member; the max is
	// the bottleneck member the gate watches.
	MeanBytes, MaxBytes uint64
	// BaselineBytes is what a plain sender-based reliable multicast makes
	// the origin transmit for the same object — size × (n-1) — before
	// counting a single retransmission, so the comparison favors it.
	BaselineBytes uint64
	Wall          time.Duration
}

// runBulkDissemination scatters one erasure-coded object over n raw bulk
// engines and measures per-member bytes on the wire. With crash set, one
// designated relay dies while the scatter is still in flight, taking its
// striped symbol share with it — the repair rotation has to cover.
func runBulkDissemination(n, objBytes int, seed int64, crash bool) bulkDistResult {
	sim := chaos.NewNet(chaos.NetConfig{Seed: seed, Link: lanLink(t9Loss), LossDomains: t9Domains})

	members := chaos.NodeIDs(n)
	engines := make(map[id.Node]*bulk.Engine, n)
	for _, m := range members {
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng := bulk.New(env, bulk.Config{Group: 1})
			eng.SetMembers(members)
			engines[m] = eng
			return eng
		})
	}

	const origin, crashed = id.Node(1), id.Node(2)
	const objID = 9
	data := workload.New(seed + 9).Payload(objBytes)
	sim.At(10*time.Millisecond, func() {
		man, err := engines[origin].Publish(objID, data)
		if err != nil {
			panic("t9 publish: " + err.Error())
		}
		for _, m := range members {
			if m != origin {
				engines[m].OnManifest(man)
			}
		}
		engines[origin].Scatter(objID)
	})
	if crash {
		sim.At(12*time.Millisecond, func() { sim.Crash(crashed) })
	}

	start := time.Now()
	sim.Run(t9Tail)

	r := bulkDistResult{
		BaselineBytes: uint64(objBytes) * uint64(n-1),
		Wall:          time.Since(start),
	}
	sent := sim.Stats().SentBytesByNode
	var total uint64
	for _, m := range members {
		if crash && m == crashed {
			continue
		}
		r.Members++
		if got, ok := engines[m].Object(objID); ok && bytes.Equal(got, data) {
			r.Complete++
		}
		b := sent[m]
		total += b
		if b > r.MaxBytes {
			r.MaxBytes = b
		}
	}
	r.MeanBytes = total / uint64(r.Members)
	return r
}

// t9Row renders one T9 table row.
func t9Row(n, objBytes int, r bulkDistResult) []string {
	return []string{
		fmt.Sprintf("%d", n),
		fmt.Sprintf("%d", objBytes/1024),
		fmt.Sprintf("%.3f", float64(r.Complete)/float64(r.Members)),
		fmt.Sprintf("%.1f", float64(r.MeanBytes)/1024),
		fmt.Sprintf("%.1f", float64(r.MaxBytes)/1024),
		fmt.Sprintf("%.0f", float64(r.BaselineBytes)/1024),
		fmt.Sprintf("%.2f", 100*float64(r.MaxBytes)/float64(r.BaselineBytes)),
		fmt.Sprintf("%d", r.Members-r.Complete),
	}
}

// T9BulkDissemination reproduces table T9: bytes on the wire per member
// when an object is pre-distributed to the whole session, erasure-coded
// scatter/relay (internal/bulk) against the flat sender-based reliable
// multicast that transmits the object once per member. The bulk max
// column is the bottleneck member: it stays near 2F(1+r/k) regardless of
// n, so its share of the flat sender cost falls as 1/n — the raptorcast
// shape the paper's architecture needs for media pre-distribution.
func T9BulkDissemination(o Options) Table {
	sizes := []int{16, 64, 256}
	objBytes := 256 * 1024
	if o.Quick {
		sizes = []int{16, 64}
		objBytes = 64 * 1024
	}
	t := Table{
		ID: "T9",
		Title: fmt.Sprintf("Bulk dissemination: per-member bytes vs flat multicast (loss %.0f%%, %d loss domains)",
			t9Loss*100, t9Domains),
		Columns: []string{"n", "object-KB", "delivery", "mean-KB", "max-KB",
			"flat-sender-KB", "max-share-%", "missing"},
	}
	for _, n := range sizes {
		seed := o.seed(1900 + int64(n))
		t.Rows = append(t.Rows, t9Row(n, objBytes, runBulkDissemination(n, objBytes, seed, false)))
	}
	return t
}
