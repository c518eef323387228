package experiments

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/rmcast"
)

// TestTotalOrderSmoke16 is the ordering-safety smoke behind
// scripts/check.sh: a 16-member group spraying four stream labels must
// deliver every message at every member, and pass the chaos checkers —
// one identical global sequence that keeps each sender's send order
// across labels. It drives the pipelined range path at the same group
// size as the T2b throughput experiment, but sized to finish in about a
// second.
func TestTotalOrderSmoke16(t *testing.T) {
	const streams = 4
	r := runGroup(groupParams{
		n: 16, ordering: rmcast.Total, senders: 4, perSend: 150,
		gap: time.Millisecond, link: lanLink(0.01), streams: streams, seed: 61,
	})
	if r.Delivered != r.Expected {
		t.Fatalf("delivered %d of %d", r.Delivered, r.Expected)
	}
	// runGroup panics on a safety violation; run the checkers anyway so
	// the smoke states what it holds.
	if v := r.Safety(); len(v) > 0 {
		t.Fatalf("delivery safety: %v", v)
	}
	labels := make(map[id.Stream]bool, streams)
	for _, d := range r.Nodes[1].Deliveries {
		labels[d.Stream] = true
	}
	if len(labels) != streams {
		t.Fatalf("deliveries carry %d stream labels, want %d", len(labels), streams)
	}
	for _, n := range r.Order {
		if sequenced := r.Nodes[n].Recovery.OrdersSent > 0; sequenced != (n == 1) {
			t.Fatalf("node %s sequenced=%v: the view coordinator is the one sequencer", n, sequenced)
		}
	}
}
