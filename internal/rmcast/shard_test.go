package rmcast

import (
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// buildSharded creates n engines sharing a static view with total
// ordering split over the given number of sequencer shards.
func buildSharded(s *netsim.Sim, n, shards int) map[id.Node]*rmNode {
	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)
	nodes := make(map[id.Node]*rmNode, n)
	for _, m := range members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			rn := &rmNode{env: env}
			rn.eng = New(env, Config{
				Group:       1,
				Ordering:    Total,
				OrderShards: shards,
				OnDeliver:   func(d Delivery) { rn.record(d) },
			})
			rn.eng.SetView(view)
			nodes[m] = rn
			return rn.eng
		})
	}
	return nodes
}

// TestShardedTotalOrderDeterministic is the seeded interleaving property
// test: several senders spraying several streams over a jittery lossy
// network, with the streams hashing to distinct sequencer shards. Every
// member must deliver the identical global sequence — the coordinator's
// merge stream is the only thing that fixes the cross-shard interleaving,
// so any nondeterminism in it shows up as divergent delivery orders. The
// windowed cells run the same workload the way a live runner drives it:
// at this rate every sequencer is in latency mode, so shard sequencers
// relay at the end of the activation that sequenced and the coordinator
// folds the relayed units into its own activation-end broadcast.
func TestShardedTotalOrderDeterministic(t *testing.T) {
	type cell struct {
		seed     int64
		windowed bool
	}
	cells := []cell{{18, false}, {41, false}, {97, false}, {18, true}, {41, true}, {97, true}}
	for _, c := range cells {
		seed, windowed := c.seed, c.windowed
		t.Run(fmt.Sprintf("seed%d/windowed=%v", seed, windowed), func(t *testing.T) {
			const (
				n       = 5
				shards  = 4
				msgs    = 60
				streams = 4
			)
			s := netsim.New(netsim.Config{
				Seed:     seed,
				Profile:  netsim.LANProfile(time.Millisecond, 10*time.Millisecond, 0.05),
				Windowed: windowed,
			})
			nodes := buildSharded(s, n, shards)
			for i := 0; i < msgs; i++ {
				i := i
				sender := id.Node(i%n + 1)
				stream := id.Stream(i % streams)
				s.At(time.Duration(10+i*2)*time.Millisecond, func() {
					nodes[sender].eng.MulticastStream(stream, []byte{byte(i)})
				})
			}
			s.Run(15 * time.Second)
			want := nodes[1].got
			if len(want) != msgs {
				t.Fatalf("node 1 delivered %d of %d", len(want), msgs)
			}
			for m, rn := range nodes {
				if len(rn.got) != msgs {
					t.Fatalf("node %s delivered %d of %d", m, len(rn.got), msgs)
				}
				for i := range want {
					a, b := want[i], rn.got[i]
					if a.Sender != b.Sender || a.Seq != b.Seq || a.Stream != b.Stream {
						t.Fatalf("node %s delivery %d = %s:%d s%d, node 1 has %s:%d s%d",
							m, i, b.Sender, b.Seq, b.Stream, a.Sender, a.Seq, a.Stream)
					}
				}
			}
			// The workload must actually exercise more than one sequencer:
			// with 4 streams and 4 shards, several members assign slots.
			sequencers := 0
			for _, rn := range nodes {
				if rn.eng.Counters().OrdersSent > 0 {
					sequencers++
				}
			}
			if sequencers < 2 {
				t.Fatalf("only %d members sequenced; sharding not exercised", sequencers)
			}
			// Early flushes happen exactly when the runtime makes the
			// windowed calls: at the coordinator (node 1) and, as relays,
			// at the other shard sequencers.
			var coordEarly, relayEarly uint64
			for m, rn := range nodes {
				if m == 1 {
					coordEarly = rn.eng.met.orderFlushesEarly.Value()
				} else {
					relayEarly += rn.eng.met.orderFlushesEarly.Value()
				}
			}
			if (coordEarly > 0) != windowed || (relayEarly > 0) != windowed {
				t.Fatalf("early flushes: coordinator %d, relays %d, windowed=%v", coordEarly, relayEarly, windowed)
			}
		})
	}
}

// TestShardedStreamOrderWithinStream checks the per-stream guarantee:
// within one stream each sender's messages deliver in seq order, and the
// stream label survives to Delivery.
func TestShardedStreamOrderWithinStream(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 23})
	nodes := buildSharded(s, 4, 2)
	for i := 0; i < 20; i++ {
		i := i
		s.At(time.Duration(5+i*3)*time.Millisecond, func() {
			nodes[2].eng.MulticastStream(id.Stream(i%2), []byte{byte(i)})
		})
	}
	s.Run(10 * time.Second)
	for m, rn := range nodes {
		if len(rn.got) != 20 {
			t.Fatalf("node %s delivered %d of 20", m, len(rn.got))
		}
		lastSeq := map[id.Stream]uint64{}
		for _, d := range rn.got {
			if d.Seq <= lastSeq[d.Stream] {
				t.Fatalf("node %s stream %s: seq %d after %d", m, d.Stream, d.Seq, lastSeq[d.Stream])
			}
			lastSeq[d.Stream] = d.Seq
		}
		if len(lastSeq) != 2 {
			t.Fatalf("node %s saw %d streams, want 2", m, len(lastSeq))
		}
	}
}

// TestShardedLostRangeRecovered cuts a shard's sequencer (and the merge
// coordinator) off from half the group mid-traffic; after healing, the
// range re-announcement path must let the isolated side catch up to the
// identical global order.
func TestShardedLostRangeRecovered(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 29})
	nodes := buildSharded(s, 4, 2)
	// Stream 1 hashes to shard 1, sequenced by member 2; member 1
	// coordinates shard 0 and the merge stream.
	s.At(5*time.Millisecond, func() {
		nodes[3].eng.MulticastStream(1, []byte("a"))
		nodes[3].eng.MulticastStream(2, []byte("b"))
	})
	// Partition after the decisions had a moment to reach {1,2} but with
	// ongoing traffic landing while {3,4} are isolated.
	s.At(60*time.Millisecond, func() {
		s.Partition([]id.Node{1, 2}, []id.Node{3, 4})
		nodes[1].eng.MulticastStream(1, []byte("c"))
	})
	s.At(400*time.Millisecond, func() { s.Heal() })
	s.Run(8 * time.Second)
	want := nodes[1].got
	if len(want) != 3 {
		t.Fatalf("node 1 delivered %d of 3", len(want))
	}
	for m, rn := range nodes {
		if len(rn.got) != 3 {
			t.Fatalf("node %s delivered %d of 3", m, len(rn.got))
		}
		for i := range want {
			if rn.got[i].Sender != want[i].Sender || rn.got[i].Seq != want[i].Seq {
				t.Fatalf("node %s order differs at %d", m, i)
			}
		}
	}
}

// TestOrderShardsClamped checks the config guard rails: sharding is
// forced off for non-total orderings and under the legacy unbatched wire
// protocol, which has no shard field.
func TestOrderShardsClamped(t *testing.T) {
	s := netsim.New(netsim.Config{})
	var fifo, legacy, capped *Engine
	s.AddNode(1, func(env proto.Env) proto.Handler {
		fifo = New(env, Config{Group: 1, Ordering: FIFO, OrderShards: 8})
		legacy = New(env, Config{Group: 2, Ordering: Total, OrderShards: 8, DisableBatching: true})
		capped = New(env, Config{Group: 3, Ordering: Total, OrderShards: 1000})
		return fifo
	})
	if fifo.nshards != 1 || legacy.nshards != 1 {
		t.Fatalf("nshards = %d/%d, want 1/1", fifo.nshards, legacy.nshards)
	}
	if capped.nshards != 256 {
		t.Fatalf("capped nshards = %d, want 256", capped.nshards)
	}
}
