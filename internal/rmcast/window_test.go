package rmcast

import (
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/wire"
)

// The tests below run the sequencer's two ordering modes under netsim with
// Config.Windowed on: the simulator then ends every activation with
// OnActivationEnd and closes windows at OrderWindow of virtual time, as
// noderun does live. Everything is checked in counts and virtual time.

const (
	winLink = time.Millisecond // one-way link delay, no jitter, no loss
	winTick = 10 * time.Millisecond
)

// windowedSim is a lossless fixed-delay LAN. With winTick, the live
// runner's 10 ms, a delivery that waited for a tick stands out.
func windowedSim(seed int64, tick time.Duration, windowed bool) *netsim.Sim {
	return netsim.New(netsim.Config{
		Seed:     seed,
		Tick:     tick,
		Profile:  netsim.LANProfile(winLink, 0, 0),
		Windowed: windowed,
	})
}

// deliveredBy runs the simulation to the deadline and reports whether
// every node has then delivered want messages.
func deliveredBy(s *netsim.Sim, nodes map[id.Node]*rmNode, deadline time.Duration, want int) bool {
	s.Run(deadline)
	for _, rn := range nodes {
		if len(rn.got) != want {
			return false
		}
	}
	return true
}

// TestTotalOrderIdleLatency: a message into an idle four-member group is
// announced at the end of the activation that sequenced it, so every member
// delivers it two link delays after the send (sender → sequencer → all) at
// whatever point of the tick it was sent. Without the windowed calls — the
// parent's behaviour, and still netsim's default — the same sends wait for
// the sequencer's next tick.
func TestTotalOrderIdleLatency(t *testing.T) {
	// Send offsets spread over the 10 ms tick; node 3 is not the sequencer.
	offsets := []time.Duration{20500 * time.Microsecond, 53 * time.Millisecond, 87100 * time.Microsecond, 125900 * time.Microsecond}
	run := func(windowed bool) (late int) {
		s := windowedSim(5, winTick, windowed)
		nodes := buildStatic(s, 4, Total)
		for i, at := range offsets {
			s.At(at, func() { nodes[3].eng.Multicast([]byte{byte(i)}) })
		}
		for i, at := range offsets {
			if !deliveredBy(s, nodes, at+2*winLink+time.Microsecond, i+1) {
				late++
				s.Run(at + 2*winTick)
			}
		}
		for n, rn := range nodes {
			if len(rn.got) != len(offsets) {
				t.Fatalf("windowed=%v: node %s delivered %d of %d", windowed, n, len(rn.got), len(offsets))
			}
		}
		return late
	}
	if late := run(true); late != 0 {
		t.Fatalf("%d of %d messages missed the two-link-delay bound with the activation-end hook", late, len(offsets))
	}
	if late := run(false); late == 0 {
		t.Fatal("control: without the hook every message still met the bound, so the test shows nothing")
	}
}

// TestTotalOrderCadenceMode: once a window has sequenced latencyModeMax
// messages the sequencer stops announcing at activation ends — each window
// then costs one KindOrderRange datagram per other member — and one quiet
// window puts it back in latency mode.
func TestTotalOrderCadenceMode(t *testing.T) {
	const (
		n       = 4
		perWin  = 40 // ≥ latencyModeMax
		loadWin = 4  // loaded windows; the first is still in latency mode
	)
	// A one-second tick keeps every node's first tick (at a seeded offset)
	// out of the 20 ms this test looks at: a receiver that ticks while data
	// waits for the window requests the order (ROADMAP L1, still open), and
	// the answer is a KindOrderRange too. The NACK count below checks it.
	s := windowedSim(9, time.Second, true)
	nodes := buildStatic(s, n, Total)
	seqr := nodes[1].eng // rank 0 sequences
	// Node 1's windows close at k × OrderWindow. Load the four windows from
	// the one that opens at 1 × OrderWindow on, from the sequencer itself,
	// one message per activation.
	first := 1
	for w := first; w < first+loadWin; w++ {
		base := time.Duration(w) * OrderWindow
		for i := 0; i < perWin; i++ {
			s.At(base+time.Duration(i+1)*50*time.Microsecond, func() { seqr.Multicast([]byte("x")) })
		}
	}
	// just after the close of window w (scripted actions of one instant run
	// before the window event of that instant, so step past it)
	after := func(w int) time.Duration { return time.Duration(w+1)*OrderWindow + time.Nanosecond }

	s.Run(after(first))
	if !seqr.cadence {
		t.Fatalf("sequencer still in latency mode after a window of %d messages", perWin)
	}
	if got := seqr.met.orderFlushesEarly.Value(); got != perWin {
		t.Fatalf("first loaded window: %d early announcements, want %d (one per activation)", got, perWin)
	}
	if seqr.met.orderMode.Value() != 1 {
		t.Fatal("order_mode gauge does not show cadence mode")
	}
	base := s.Stats().SentByKind[wire.KindOrderRange]

	s.Run(after(first + loadWin - 1))
	if got := seqr.met.orderFlushesEarly.Value(); got != perWin {
		t.Fatalf("cadence mode announced early: %d early flushes, want %d", got, perWin)
	}
	cadenceWins := uint64(loadWin - 1)
	if got := s.Stats().SentByKind[wire.KindOrderRange] - base; got != cadenceWins*(n-1) {
		t.Fatalf("%d KindOrderRange datagrams over %d cadence windows, want %d (n-1 per window)",
			got, cadenceWins, cadenceWins*(n-1))
	}

	if got := s.Stats().SentByKind[wire.KindNackBatch]; got != 0 {
		t.Fatalf("%d NACK batches: a tick fell inside the measured span, pick another seed", got)
	}

	// The window after the load closes empty.
	s.Run(after(first + loadWin))
	if seqr.cadence || seqr.met.orderMode.Value() != 0 {
		t.Fatal("sequencer still in cadence mode after a quiet window")
	}
	sent := perWin * loadWin
	at := after(first+loadWin) + time.Millisecond
	s.At(at, func() { nodes[3].eng.Multicast([]byte("y")) })
	if !deliveredBy(s, nodes, at+2*winLink+time.Microsecond, sent+1) {
		t.Fatal("back in latency mode, a message still missed the two-link-delay bound")
	}
	want := nodes[1].order
	for m, rn := range nodes {
		for i := range want {
			if rn.order[i] != want[i] {
				t.Fatalf("node %s delivery %d = %s, node 1 has %s", m, i, rn.order[i], want[i])
			}
		}
	}
}

// TestFrozenSequencerAnnouncesNothing: while a view change has the
// sequencer frozen, data arriving there gets no slot and the hook has
// nothing to announce; the blocked messages drain, in the same order
// everywhere, when the next view installs.
func TestFrozenSequencerAnnouncesNothing(t *testing.T) {
	s := windowedSim(13, winTick, true)
	nodes := buildStatic(s, 4, Total)
	seqr := nodes[1].eng
	s.At(20*time.Millisecond, func() { seqr.Freeze() })
	s.At(21*time.Millisecond, func() {
		nodes[3].eng.Multicast([]byte("a"))
		nodes[2].eng.Multicast([]byte("b"))
	})
	s.Run(60 * time.Millisecond)
	if c := seqr.Counters(); c.OrdersSent != 0 || c.OrderRanges != 0 {
		t.Fatalf("frozen sequencer assigned %d slots, announced %d units", c.OrdersSent, c.OrderRanges)
	}
	if seqr.ord.seqSlot != 0 || seqr.met.orderFlushes.Value() != 0 {
		t.Fatalf("frozen sequencer flushed: seqSlot=%d flushes=%d", seqr.ord.seqSlot, seqr.met.orderFlushes.Value())
	}
	if got := s.Stats().SentByKind[wire.KindOrderRange]; got != 0 {
		t.Fatalf("%d KindOrderRange datagrams while frozen", got)
	}
	for m, rn := range nodes {
		if len(rn.got) != 0 {
			t.Fatalf("node %s delivered %d messages without an order", m, len(rn.got))
		}
	}
	next := member.NewView(2, []id.Node{1, 2, 3, 4})
	s.At(61*time.Millisecond, func() {
		for _, rn := range nodes {
			rn.eng.SetView(next)
		}
	})
	s.Run(70 * time.Millisecond)
	for m, rn := range nodes {
		if len(rn.order) != 2 || rn.order[0] != "n2:1" || rn.order[1] != "n3:1" {
			t.Fatalf("node %s drained %v at the view change, want [n2:1 n3:1]", m, rn.order)
		}
	}
}

// TestTotalOrderDeterministic is the seeded interleaving property test:
// several senders spraying several stream labels over a jittery lossy
// network. Every member must deliver the identical global sequence, each
// delivery must carry the label it was sent with, and — one sequencer
// orders every label — each sender's messages must arrive in send order
// across labels. The windowed cells run the same workload the way a live
// runner drives it: at this rate the sequencer is in latency mode and
// announces at the end of the activation that sequenced.
func TestTotalOrderDeterministic(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		for _, seed := range []int64{18, 41, 97} {
			t.Run(fmt.Sprintf("seed%d/windowed=%v", seed, windowed), func(t *testing.T) {
				const (
					n       = 5
					msgs    = 60
					streams = 4
				)
				s := netsim.New(netsim.Config{
					Seed:     seed,
					Profile:  netsim.LANProfile(time.Millisecond, 10*time.Millisecond, 0.05),
					Windowed: windowed,
				})
				nodes := buildStatic(s, n, Total)
				for i := 0; i < msgs; i++ {
					sender := id.Node(i%n + 1)
					s.At(time.Duration(10+i*2)*time.Millisecond, func() {
						nodes[sender].eng.MulticastStream(id.Stream(i%streams), []byte{byte(i)})
					})
				}
				s.Run(15 * time.Second)
				want := nodes[1].got
				for m, rn := range nodes {
					if len(rn.got) != msgs {
						t.Fatalf("node %s delivered %d of %d", m, len(rn.got), msgs)
					}
					lastSeq := map[id.Node]uint64{}
					for i, d := range rn.got {
						if w := want[i]; d.Sender != w.Sender || d.Seq != w.Seq {
							t.Fatalf("node %s delivery %d = %s:%d, node 1 has %s:%d",
								m, i, d.Sender, d.Seq, w.Sender, w.Seq)
						}
						if sent := id.Stream(int(d.Payload[0]) % streams); d.Stream != sent {
							t.Fatalf("node %s delivery %d carries stream %s, sent on %s", m, i, d.Stream, sent)
						}
						if d.Seq != lastSeq[d.Sender]+1 {
							t.Fatalf("node %s: %s seq %d after %d", m, d.Sender, d.Seq, lastSeq[d.Sender])
						}
						lastSeq[d.Sender] = d.Seq
					}
				}
				// One sequencer, the view coordinator; it announces early
				// exactly when the runtime makes the windowed calls.
				for m, rn := range nodes {
					sequenced := rn.eng.Counters().OrdersSent > 0
					early := rn.eng.met.orderFlushesEarly.Value() > 0
					if sequenced != (m == 1) || early != (m == 1 && windowed) {
						t.Fatalf("node %s: sequenced=%v early=%v, windowed=%v", m, sequenced, early, windowed)
					}
				}
			})
		}
	}
}

// TestTotalOrderLostRangeRecovered cuts the sequencer off from half the
// group mid-traffic: its range announcements reach node 2 only. After
// healing, the order-request path must re-serve those units verbatim and
// let the isolated side catch up to the identical order.
func TestTotalOrderLostRangeRecovered(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 29})
	nodes := buildStatic(s, 4, Total)
	s.At(5*time.Millisecond, func() {
		nodes[3].eng.MulticastStream(1, []byte("a"))
		nodes[3].eng.MulticastStream(2, []byte("b"))
	})
	// Partition after the first decisions had a moment to spread, with
	// more traffic sequenced while {3,4} are isolated.
	s.At(60*time.Millisecond, func() {
		s.Partition([]id.Node{1, 2}, []id.Node{3, 4})
		nodes[1].eng.MulticastStream(1, []byte("c"))
	})
	s.At(400*time.Millisecond, func() { s.Heal() })
	s.Run(8 * time.Second)
	want := nodes[1].order
	if len(want) != 3 {
		t.Fatalf("node 1 delivered %d of 3", len(want))
	}
	for m, rn := range nodes {
		if fmt.Sprint(rn.order) != fmt.Sprint(want) {
			t.Fatalf("node %s delivered %v, node 1 %v", m, rn.order, want)
		}
	}
	if s.Stats().SentByKind[wire.KindNackBatch] == 0 {
		t.Fatal("no order request was sent: the partition lost no announcement")
	}
}
