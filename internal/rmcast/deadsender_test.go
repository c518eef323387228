package rmcast

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
)

// deadSenderRun opens a gap that can never be repaired: the sender
// multicasts seq 1 while partitioned away from everyone, heals, multicasts
// seq 2 (exposing the gap at every receiver), and then crashes for good.
// It returns the total recovery requests issued across the surviving
// receivers over ~30 virtual seconds of futile retry.
func deadSenderRun(t *testing.T) uint64 {
	t.Helper()
	const n = 4
	link := netsim.Link{Delay: time.Millisecond}
	s := netsim.New(netsim.Config{
		Seed:    42,
		Profile: func(_, _ id.Node) netsim.Link { return link },
	})

	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)
	engines := make(map[id.Node]*Engine, n)
	for _, m := range members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			eng := New(env, Config{
				Group:    1,
				Ordering: FIFO,
			})
			eng.SetView(view)
			engines[m] = eng
			return eng
		})
	}

	sender := members[0]
	s.At(5*time.Millisecond, func() {
		s.Partition([]id.Node{sender}) // seq 1 reaches nobody
	})
	s.At(10*time.Millisecond, func() { _ = engines[sender].Multicast([]byte{1}) })
	s.At(20*time.Millisecond, func() { s.Heal() })
	s.At(30*time.Millisecond, func() { _ = engines[sender].Multicast([]byte{2}) })
	// Crash right behind seq 2's 1ms propagation: the gap is exposed at
	// every receiver, but any request (earliest tick ≥ 31ms, so arrival
	// ≥ 32ms) finds the sender already dead.
	s.At(32*time.Millisecond, func() { s.Crash(sender) })

	s.Run(30 * time.Second)

	var requests uint64
	for m, eng := range engines {
		if m == sender {
			continue
		}
		requests += eng.Counters().NacksSent
	}
	return requests
}

// TestDeadSenderBoundedNacks pins the exponential request backoff: a gap
// whose only holder has crashed must not turn into a fixed-interval NACK
// drone. At the 40ms base timer a non-backed-off receiver would fire ~750
// requests over 30s; capped exponential backoff (2s cap) allows at most
// ~20 per receiver.
func TestDeadSenderBoundedNacks(t *testing.T) {
	requests := deadSenderRun(t)
	if requests == 0 {
		t.Fatal("no recovery requests: the gap was never detected")
	}
	// 3 surviving receivers; requests are shared multicasts, so the
	// total should be lower still.
	const perReceiverCap = 40
	if limit := uint64(3 * perReceiverCap); requests > limit {
		t.Errorf("%d recovery requests over 30s exceed the backoff bound %d", requests, limit)
	}
	t.Logf("%d recovery requests over 30s", requests)
}
