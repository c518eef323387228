package scalamedia

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalamedia/internal/transport"
)

// TestBatchedTransportChaosMatrix re-runs the invariant catalogue from
// internal/chaos over the live batched data plane: every node's runner
// routes sends through SendBatch/Flush (the fabric endpoints implement
// transport.BatchSender), so the coalescing layer sits under a lossy,
// duplicating, jittery network. For each (ordering, seed) cell the test
// asserts, after the reliability layer has recovered:
//
//   - no duplication: each receiver delivers every (sender, index)
//     payload at most once;
//   - no creation: every delivered payload was actually sent;
//   - per-sender FIFO: each receiver sees each sender's payloads in
//     send order with nothing missing;
//   - view convergence: all nodes agree on the full membership;
//   - total order (the Total cells, whose 5 ms tick leaves the sequencer's
//     announcements to the runner's activation-end hook and ordering
//     window): every node delivers the identical sequence.
func TestBatchedTransportChaosMatrix(t *testing.T) {
	type cell struct {
		ordering Ordering
		seed     int64
	}
	cells := []cell{
		{FIFO, 1}, {FIFO, 2},
		{Causal, 1}, {Causal, 2},
		{Total, 1}, {Total, 2},
	}
	if testing.Short() {
		cells = cells[:1]
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("ord=%v/seed=%d", c.ordering, c.seed), func(t *testing.T) {
			t.Parallel()
			runBatchChaosCell(t, c.ordering, c.seed)
		})
	}
}

// chaosRecorder captures per-receiver delivery order keyed by sender.
type chaosRecorder struct {
	mu       sync.Mutex
	bySender map[NodeID][]string // payloads in delivery order
	all      []string            // every payload in delivery order
}

func (r *chaosRecorder) add(ev Event) {
	if ev.Kind != MessageReceived {
		return
	}
	r.mu.Lock()
	r.bySender[ev.Node] = append(r.bySender[ev.Node], string(ev.Payload))
	r.all = append(r.all, string(ev.Payload))
	r.mu.Unlock()
}

// sequence returns a copy of the overall delivery order.
func (r *chaosRecorder) sequence() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.all...)
}

func (r *chaosRecorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ps := range r.bySender {
		n += len(ps)
	}
	return n
}

func runBatchChaosCell(t *testing.T, ord Ordering, seed int64) {
	const (
		nodes   = 4
		perNode = 25
	)
	fab := transport.NewFabric(
		transport.WithSeed(seed),
		transport.WithDefaultLink(transport.LinkConfig{
			Delay:     time.Millisecond,
			Jitter:    3 * time.Millisecond,
			Loss:      0.03,
			Duplicate: 0.02,
		}),
	)
	t.Cleanup(fab.Close)

	members := make([]*Node, 0, nodes)
	recs := make([]*chaosRecorder, 0, nodes)
	for i := 1; i <= nodes; i++ {
		ep, err := fab.Attach(NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ep.(transport.BatchSender); !ok {
			t.Fatal("fabric endpoint lost its BatchSender surface")
		}
		rec := &chaosRecorder{bySender: make(map[NodeID][]string)}
		cfg := Config{
			Self: NodeID(i), Endpoint: ep, Group: 1,
			Ordering:       ord,
			Tick:           5 * time.Millisecond,
			HeartbeatEvery: 50 * time.Millisecond,
			SuspectAfter:   5 * time.Second, // loss must not read as failure
			OnEvent:        rec.add,
		}
		if i > 1 {
			cfg.Contact = 1
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		members = append(members, n)
		recs = append(recs, rec)
	}

	waitFor(t, "full view on every node", func() bool {
		for _, n := range members {
			if n.View().Size() != nodes {
				return false
			}
		}
		return true
	})

	// Every node multicasts its numbered payloads; the lossy fabric and
	// the coalesced send path both sit under this traffic.
	for i, n := range members {
		for k := 0; k < perNode; k++ {
			if err := n.Send([]byte(fmt.Sprintf("n%d-%03d", i+1, k))); err != nil {
				t.Fatalf("node %d send %d: %v", i+1, k, err)
			}
		}
	}

	// Each receiver must recover every payload from every sender (the
	// session also delivers a node's own multicasts back to it).
	want := nodes * perNode
	waitFor(t, "all payloads recovered through loss", func() bool {
		for _, rec := range recs {
			if rec.total() < want {
				return false
			}
		}
		return true
	})

	// Invariant catalogue over the recorded deliveries.
	for ri, rec := range recs {
		rec.mu.Lock()
		for sender, got := range rec.bySender {
			if len(got) != perNode {
				rec.mu.Unlock()
				t.Fatalf("node %d: %d payloads from %d (duplication or loss), want %d",
					ri+1, len(got), sender, perNode)
			}
			for k, p := range got {
				if wantP := fmt.Sprintf("n%d-%03d", sender, k); p != wantP {
					rec.mu.Unlock()
					t.Fatalf("node %d: delivery %d from %d = %q, want %q (FIFO violation or creation)",
						ri+1, k, sender, p, wantP)
				}
			}
		}
		rec.mu.Unlock()
	}
	if ord == Total {
		// Every recorder holds exactly the want payloads (checked above).
		first := recs[0].sequence()
		for ri, rec := range recs[1:] {
			for k, p := range rec.sequence() {
				if p != first[k] {
					t.Fatalf("total order: node %d delivery %d = %q, node 1 has %q", ri+2, k, p, first[k])
				}
			}
		}
	}
}
