package experiments

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
)

// TestTotalOrderSmoke16 is the ordering-safety smoke behind
// scripts/check.sh: a 16-member group spraying four stream labels must
// deliver every message, at every member, in one identical global
// sequence that keeps each sender's send order across labels. It drives
// the pipelined range path at the same group size as the T2b throughput
// experiment, but sized to finish in about a second.
func TestTotalOrderSmoke16(t *testing.T) {
	const (
		n       = 16
		senders = 4
		per     = 150
		streams = 4
	)
	sim := netsim.New(netsim.Config{
		Seed:    61,
		Profile: netsim.LANProfile(time.Millisecond, 2*time.Millisecond, 0.01),
	})
	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)
	type dlv struct {
		sender id.Node
		seq    uint64
		stream id.Stream
	}
	order := make(map[id.Node][]dlv, n)
	engines := make(map[id.Node]*rmcast.Engine, n)
	for _, m := range members {
		m := m
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng := rmcast.New(env, rmcast.Config{
				Group:    1,
				Ordering: rmcast.Total,
				OnDeliver: func(d rmcast.Delivery) {
					order[m] = append(order[m], dlv{d.Sender, d.Seq, d.Stream})
				},
			})
			eng.SetView(view)
			engines[m] = eng
			return eng
		})
	}
	for s := 0; s < senders; s++ {
		sender := members[s]
		for i := 0; i < per; i++ {
			i := i
			sim.At(time.Duration(5+i)*time.Millisecond, func() {
				_ = engines[sender].MulticastStream(id.Stream(i%streams), []byte{byte(i)})
			})
		}
	}
	sim.Run(per*time.Millisecond + 5*time.Second)
	want := order[members[0]]
	if len(want) != senders*per {
		t.Fatalf("node %s delivered %d of %d", members[0], len(want), senders*per)
	}
	for _, m := range members[1:] {
		got := order[m]
		if len(got) != len(want) {
			t.Fatalf("node %s delivered %d, node %s delivered %d",
				m, len(got), members[0], len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %s delivery %d = %+v, node %s has %+v — global order diverged",
					m, i, got[i], members[0], want[i])
			}
		}
	}
	// Cross-label sender FIFO: one sequencer orders every label, so each
	// sender's messages keep their send order whatever label they carry.
	last := make(map[id.Node]uint64, senders)
	labels := make(map[id.Stream]bool, streams)
	for i, d := range want {
		if d.seq != last[d.sender]+1 {
			t.Fatalf("delivery %d: %s seq %d (stream %s) after seq %d", i, d.sender, d.seq, d.stream, last[d.sender])
		}
		last[d.sender] = d.seq
		labels[d.stream] = true
	}
	if len(labels) != streams {
		t.Fatalf("deliveries carry %d stream labels, want %d", len(labels), streams)
	}
	for _, m := range members {
		if sequenced := engines[m].Counters().OrdersSent > 0; sequenced != (m == members[0]) {
			t.Fatalf("node %s sequenced=%v: the view coordinator is the one sequencer", m, sequenced)
		}
	}
}
