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
// OnActivationEnd and ticks the ordering clock every orderTick of virtual
// time, as noderun does live. Everything is checked in counts and virtual
// time.

const (
	winLink = 250 * time.Microsecond // one-way link delay, no jitter, no loss
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

	s.Run(afterWindow(first))
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

	s.Run(afterWindow(first + loadWin - 1))
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
	s.Run(afterWindow(first + loadWin))
	if seqr.cadence || seqr.met.orderMode.Value() != 0 {
		t.Fatal("sequencer still in cadence mode after a quiet window")
	}
	sent := perWin * loadWin
	at := afterWindow(first+loadWin) + time.Millisecond
	s.At(at, func() { nodes[3].eng.Multicast([]byte("y")) })
	if !deliveredBy(s, nodes, at+2*winLink+time.Microsecond, sent+1) {
		t.Fatal("back in latency mode, a message still missed the two-link-delay bound")
	}
	sameOrder(t, nodes, sent+1)
}

// saturate schedules one multicast from each sender every `every`, from
// `from` for `span`, and returns how many it scheduled.
func saturate(s *netsim.Sim, nodes map[id.Node]*rmNode, senders []id.Node, from, span, every time.Duration) int {
	sent := 0
	for at := from; at < from+span; at += every {
		for _, m := range senders {
			s.At(at, func() { nodes[m].eng.Multicast([]byte("x")) })
			sent++
		}
	}
	return sent
}

// sameOrder fails the test unless every node delivered want messages in
// node 1's order.
func sameOrder(t *testing.T, nodes map[id.Node]*rmNode, want int) {
	t.Helper()
	ref := nodes[1].order
	for m, rn := range nodes {
		if len(rn.order) != want {
			t.Fatalf("node %s delivered %d of %d", m, len(rn.order), want)
		}
		for i := range ref {
			if rn.order[i] != ref[i] {
				t.Fatalf("node %s delivery %d = %s, node 1 has %s", m, i, rn.order[i], ref[i])
			}
		}
	}
}

// afterWindow is just past the close of node 1's window w (windows close at
// k × OrderWindow; scripted actions of one instant run before the window
// event of that instant, so step past it).
func afterWindow(w int) time.Duration { return time.Duration(w+1)*OrderWindow + time.Nanosecond }

// TestTotalOrderEchoClocked: four members all sending at saturation. Each
// member's data carries back how far it has admitted the order, and the
// round trip (0.5 ms on this LAN) fits in echoTicks, so in cadence mode the
// sequencer announces its next batch echoTicks after the last one instead
// of at the window bound. Every member still delivers the same sequence.
// The one-second tick keeps ticks, and with them order requests, out of
// the span.
func TestTotalOrderEchoClocked(t *testing.T) {
	const loadWin = 10
	s := windowedSim(9, time.Second, true)
	nodes := buildStatic(s, 4, Total)
	seqr := nodes[1].eng
	sent := saturate(s, nodes, []id.Node{1, 2, 3, 4}, OrderWindow, loadWin*OrderWindow, 100*time.Microsecond)
	s.Run(afterWindow(loadWin + 3))
	sameOrder(t, nodes, sent)
	echoed, flushes := seqr.met.orderFlushesEchoed.Value(), seqr.met.orderFlushes.Value()
	t.Logf("%d messages, %d flushes, %d of them opened by echoes", sent, flushes, echoed)
	// The first loaded window is in latency mode; over the cadence windows
	// after it a batch should leave on echoes every echoTicks.
	if want := uint64((loadWin-1)*windowTicks/echoTicks - 1); echoed < want {
		t.Fatalf("%d of %d flushes opened by echoes over %d cadence windows, want at least %d (one every %d ticks)",
			echoed, flushes, loadWin-1, want, echoTicks)
	}
	if got := s.Stats().SentByKind[wire.KindNackBatch]; got != 0 {
		t.Fatalf("%d NACK batches: a tick fell inside the measured span, pick another seed", got)
	}
}

// TestTotalOrderEchoMidBand: every member sending, 40 and 100 messages per
// window in all — above the cadence threshold, below saturation — on a LAN
// whose round trip (0.2 ms) fits the window fifteen times. Echoes come back
// long before a window's worth of data has arrived, so a batch that left
// the moment they were in would hold a few messages, n−1 KindOrderRange
// datagrams each. Measured against the window alone (n−1 per cadence
// window), the extra KindOrderRange datagrams must stay within 6 % of all
// datagrams sent, the budget the benchmark allows the echo.
func TestTotalOrderEchoMidBand(t *testing.T) {
	const (
		n       = 4
		loadWin = 20
		budget  = 0.06
	)
	for _, every := range []time.Duration{300 * time.Microsecond, 120 * time.Microsecond} {
		t.Run(fmt.Sprintf("perWin=%d", n*int(OrderWindow/every)), func(t *testing.T) {
			s := netsim.New(netsim.Config{
				Seed:     9,
				Tick:     time.Second,
				Profile:  netsim.LANProfile(100*time.Microsecond, 0, 0),
				Windowed: true,
			})
			nodes := buildStatic(s, n, Total)
			seqr := nodes[1].eng
			sent := saturate(s, nodes, []id.Node{1, 2, 3, 4}, OrderWindow, loadWin*OrderWindow, every)
			s.Run(afterWindow(1)) // the first loaded window is in latency mode
			before := s.Stats()
			s.Run(afterWindow(loadWin))
			after := s.Stats()
			ranges := after.SentByKind[wire.KindOrderRange] - before.SentByKind[wire.KindOrderRange]
			windowOnly := uint64((loadWin - 1) * (n - 1))
			others := after.TotalSent() - before.TotalSent() - ranges
			extra := float64(ranges) - float64(windowOnly)
			t.Logf("%d KindOrderRange over %d cadence windows (window alone: %d), %d other datagrams, %d flushes opened by echoes",
				ranges, loadWin-1, windowOnly, others, seqr.met.orderFlushesEchoed.Value())
			if seqr.met.orderFlushesEchoed.Value() == 0 {
				t.Fatal("no flush opened by echoes: the test measures nothing")
			}
			if limit := budget * float64(others+windowOnly); extra > limit {
				t.Fatalf("echoes added %.0f KindOrderRange datagrams, over the %.0f (%.0f %%) budget", extra, limit, 100*budget)
			}
			s.Run(afterWindow(loadWin + 3))
			sameOrder(t, nodes, sent)
		})
	}
}

// TestTotalOrderSilentMemberNoEcho: one member never sends, so it never
// echoes and no batch leaves early: in cadence mode every batch waits for
// the window bound, n−1 KindOrderRange datagrams per window, exactly as
// TestTotalOrderCadenceMode has it for a sequencer sending alone. Once the
// silent member sends too, echoes open flushes again.
func TestTotalOrderSilentMemberNoEcho(t *testing.T) {
	const (
		n       = 4
		loadWin = 4 // windows 1–4; the first is still in latency mode
	)
	s := windowedSim(9, time.Second, true)
	nodes := buildStatic(s, n, Total)
	seqr := nodes[1].eng
	sent := saturate(s, nodes, []id.Node{1, 2, 3}, OrderWindow, loadWin*OrderWindow, 100*time.Microsecond)

	s.Run(afterWindow(1))
	if !seqr.cadence {
		t.Fatal("sequencer still in latency mode after a loaded window")
	}
	base := s.Stats().SentByKind[wire.KindOrderRange]
	s.Run(afterWindow(loadWin))
	if got := seqr.met.orderFlushesEchoed.Value(); got != 0 {
		t.Fatalf("%d flushes opened by echoes while node 4 sent nothing", got)
	}
	cadenceWins := uint64(loadWin - 1)
	if got := s.Stats().SentByKind[wire.KindOrderRange] - base; got != cadenceWins*(n-1) {
		t.Fatalf("%d KindOrderRange datagrams over %d cadence windows, want %d (n-1 per window)",
			got, cadenceWins, cadenceWins*(n-1))
	}

	sent += saturate(s, nodes, []id.Node{1, 2, 3, 4}, afterWindow(loadWin), loadWin*OrderWindow, 100*time.Microsecond)
	s.Run(afterWindow(2*loadWin + 3))
	if seqr.met.orderFlushesEchoed.Value() == 0 {
		t.Fatal("no flush opened by echoes once every member sends")
	}
	if got := s.Stats().SentByKind[wire.KindNackBatch]; got != 0 {
		t.Fatalf("%d NACK batches: a tick fell inside the measured span, pick another seed", got)
	}
	sameOrder(t, nodes, sent)
}

// TestTotalOrderStaleEchoNoFlush: only a member's first transmission in the
// current view, carrying at least the end of the last announcement, counts
// as its echo. The sequencer alone keeps the group in cadence mode while
// the three other members inject, into the sequencer only, one stale form
// per window: a KindRetrans carrying a huge Aux, a datagram from the
// previous view carrying the same, and current-view data whose Aux is one
// below the last announcement's end. None opens a flush; the control window
// after them, where the three send real data, does.
func TestTotalOrderStaleEchoNoFlush(t *testing.T) {
	const perWin = 40
	s := windowedSim(9, time.Second, true)
	nodes := buildStatic(s, 4, Total)
	members := []id.Node{1, 2, 3, 4}
	for _, rn := range nodes {
		rn.eng.SetView(member.NewView(2, members)) // view 1 is the previous one
	}
	seqr := nodes[1].eng
	others := []id.Node{2, 3, 4}
	// Each other member sends once early on, so it has a message 1 that
	// the injected copies below duplicate.
	for _, m := range others {
		s.At(500*time.Microsecond, func() { nodes[m].eng.Multicast([]byte("early")) })
	}
	// The sequencer loads windows 1–5 (window 1 is in latency mode).
	for w := 1; w <= 5; w++ {
		for i := 0; i < perWin; i++ {
			s.At(time.Duration(w)*OrderWindow+time.Duration(i+1)*50*time.Microsecond,
				func() { seqr.Multicast([]byte("x")) })
		}
	}
	inject := func(w int, msg func() wire.Message) {
		s.At(time.Duration(w)*OrderWindow+200*time.Microsecond, func() {
			for _, m := range others {
				d := msg()
				d.Group, d.Sender, d.Seq, d.Flags = 1, m, 1, wire.FlagTotalOrder
				nodes[m].env.Send(1, &d)
			}
		})
	}
	inject(2, func() wire.Message { return wire.Message{Kind: wire.KindRetrans, View: 2, Aux: 1 << 40} })
	inject(3, func() wire.Message { return wire.Message{Kind: wire.KindData, View: 1, Aux: 1 << 40} })
	inject(4, func() wire.Message { return wire.Message{Kind: wire.KindData, View: 2, Aux: seqr.ord.annEnd - 1} })
	for w, form := range []string{2: "a retransmission", 3: "a previous-view datagram", 4: "an echo below annEnd"} {
		if form == "" {
			continue
		}
		s.Run(afterWindow(w))
		if !seqr.cadence {
			t.Fatalf("window %d: sequencer not in cadence mode", w)
		}
		if got := seqr.met.orderFlushesEchoed.Value(); got != 0 {
			t.Fatalf("window %d: %s opened %d flushes", w, form, got)
		}
	}
	// Control: real data from the three, sent once the window-4 announcement
	// has reached them and arriving before window 5 closes.
	for _, m := range others {
		s.At(5*OrderWindow+1500*time.Microsecond, func() { nodes[m].eng.Multicast([]byte("late")) })
	}
	s.Run(afterWindow(8))
	if seqr.met.orderFlushesEchoed.Value() == 0 {
		t.Fatal("control: real data carrying the echo opened no flush")
	}
	sameOrder(t, nodes, 2*len(others)+5*perWin)
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
