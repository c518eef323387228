package netsim

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// echoHandler records receptions and can send on demand.
type echoHandler struct {
	env      proto.Env
	got      []recorded
	tickedAt []time.Time
}

type recorded struct {
	from id.Node
	seq  uint64
	at   time.Time
}

func (h *echoHandler) OnMessage(from id.Node, msg *wire.Message) {
	h.got = append(h.got, recorded{from: from, seq: msg.Seq, at: h.env.Now()})
}

func (h *echoHandler) OnTick(now time.Time) { h.tickedAt = append(h.tickedAt, now) }

func newEcho(env proto.Env) *echoHandler { return &echoHandler{env: env} }

func TestSimDelivery(t *testing.T) {
	s := New(Config{Profile: LANProfile(2*time.Millisecond, 0, 0)})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })

	s.At(10*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
	})
	s.Run(100 * time.Millisecond)

	if len(b.got) != 1 {
		t.Fatalf("b received %d messages, want 1", len(b.got))
	}
	r := b.got[0]
	if r.from != 1 || r.seq != 1 {
		t.Fatalf("received %+v", r)
	}
	wantAt := time.Unix(0, 0).UTC().Add(12 * time.Millisecond)
	if !r.at.Equal(wantAt) {
		t.Fatalf("delivered at %v, want %v (delay 2ms)", r.at, wantAt)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []recorded {
		s := New(Config{
			Seed:    99,
			Profile: LANProfile(time.Millisecond, 3*time.Millisecond, 0.2),
		})
		handlers := make(map[id.Node]*echoHandler)
		for n := id.Node(1); n <= 4; n++ {
			n := n
			s.AddNode(n, func(env proto.Env) proto.Handler {
				h := newEcho(env)
				handlers[n] = h
				return h
			})
		}
		for i := 0; i < 50; i++ {
			i := i
			s.At(time.Duration(i)*time.Millisecond, func() {
				for to := id.Node(2); to <= 4; to++ {
					handlers[1].env.Send(to, &wire.Message{Kind: wire.KindData, Seq: uint64(i)})
				}
			})
		}
		s.Run(time.Second)
		var all []recorded
		for n := id.Node(2); n <= 4; n++ {
			all = append(all, handlers[n].got...)
		}
		return all
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs differ in count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	if len(first) == 0 || len(first) == 150 {
		t.Fatalf("with 20%% loss expected some but not all of 150 deliveries, got %d", len(first))
	}
}

func TestSimTicks(t *testing.T) {
	s := New(Config{Tick: 10 * time.Millisecond})
	var h *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { h = newEcho(env); return h })
	s.Run(105 * time.Millisecond)
	// Staggered start, then every 10ms: expect about 10 ticks.
	if n := len(h.tickedAt); n < 9 || n > 11 {
		t.Fatalf("got %d ticks in 105ms at 10ms cadence", n)
	}
	for i := 1; i < len(h.tickedAt); i++ {
		if d := h.tickedAt[i].Sub(h.tickedAt[i-1]); d != 10*time.Millisecond {
			t.Fatalf("tick gap %v, want 10ms", d)
		}
	}
}

func TestSimCrashStopsNode(t *testing.T) {
	s := New(Config{})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })

	s.At(5*time.Millisecond, func() { s.Crash(2) })
	s.At(10*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
	})
	s.Run(50 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatalf("crashed node received %d messages", len(b.got))
	}

	ticksWhenCrashed := len(b.tickedAt)
	s.Run(100 * time.Millisecond)
	if len(b.tickedAt) != ticksWhenCrashed {
		t.Fatal("crashed node kept ticking")
	}
}

func TestSimRestart(t *testing.T) {
	s := New(Config{})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.At(5*time.Millisecond, func() { s.Crash(2) })
	s.At(20*time.Millisecond, func() { s.Restart(2) })
	s.At(30*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 7})
	})
	s.Run(100 * time.Millisecond)
	if len(b.got) != 1 || b.got[0].seq != 7 {
		t.Fatalf("restarted node got %+v", b.got)
	}
}

func TestSimPartition(t *testing.T) {
	s := New(Config{})
	var a, b, c *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.AddNode(3, func(env proto.Env) proto.Handler { c = newEcho(env); return c })

	s.At(time.Millisecond, func() { s.Partition([]id.Node{1, 2}, []id.Node{3}) })
	s.At(10*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
		a.env.Send(3, &wire.Message{Kind: wire.KindData, Seq: 2})
	})
	s.At(20*time.Millisecond, func() { s.Heal() })
	s.At(30*time.Millisecond, func() {
		a.env.Send(3, &wire.Message{Kind: wire.KindData, Seq: 3})
	})
	s.Run(100 * time.Millisecond)

	if len(b.got) != 1 {
		t.Fatalf("same-side node got %d messages, want 1", len(b.got))
	}
	if len(c.got) != 1 || c.got[0].seq != 3 {
		t.Fatalf("cross-partition deliveries wrong: %+v", c.got)
	}
}

func TestSimStats(t *testing.T) {
	s := New(Config{Profile: LANProfile(time.Millisecond, 0, 1.0)})
	var a *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { return newEcho(env) })
	s.At(time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
		a.env.Send(2, &wire.Message{Kind: wire.KindHeartbeat, Seq: 2})
	})
	s.Run(50 * time.Millisecond)
	st := s.Stats()
	if st.SentByKind[wire.KindData] != 1 || st.SentByKind[wire.KindHeartbeat] != 1 {
		t.Fatalf("SentByKind = %v", st.SentByKind)
	}
	if st.TotalSent() != 2 {
		t.Fatalf("TotalSent = %d", st.TotalSent())
	}
	if st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2 (100%% loss)", st.Dropped)
	}
	if st.Delivered != 0 {
		t.Fatalf("Delivered = %d, want 0", st.Delivered)
	}
	if st.TotalBytes() == 0 {
		t.Fatal("TotalBytes = 0")
	}
}

func TestSimRunAdvancesToDeadline(t *testing.T) {
	s := New(Config{})
	s.Run(42 * time.Millisecond)
	if got := s.Elapsed(); got != 42*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 42ms", got)
	}
}

func TestSimZeroDelayStillOrdered(t *testing.T) {
	// Even with zero configured delay, a message sent "now" must be
	// delivered strictly after the sending event.
	s := New(Config{Profile: LANProfile(0, 0, 0)})
	var a, b *echoHandler
	order := []string{}
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.At(time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
		order = append(order, "sent")
	})
	s.Run(10 * time.Millisecond)
	_ = order
	if len(b.got) != 1 {
		t.Fatalf("got %d deliveries", len(b.got))
	}
}

func TestMux(t *testing.T) {
	s := New(Config{})
	var h1, h2 *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler {
		h1, h2 = newEcho(env), newEcho(env)
		return proto.NewMux(h1, h2)
	})
	var sender *echoHandler
	s.AddNode(2, func(env proto.Env) proto.Handler { sender = newEcho(env); return sender })
	s.At(time.Millisecond, func() {
		sender.env.Send(1, &wire.Message{Kind: wire.KindData, Seq: 4})
	})
	s.Run(50 * time.Millisecond)
	if len(h1.got) != 1 || len(h2.got) != 1 {
		t.Fatalf("mux fanout: h1=%d h2=%d, want 1 and 1", len(h1.got), len(h2.got))
	}
	if len(h1.tickedAt) == 0 || len(h2.tickedAt) == 0 {
		t.Fatal("mux did not forward ticks")
	}
}

func TestSimBandwidthSerialization(t *testing.T) {
	// 10 KB/s link, 100-byte payloads (plus ~60B header): each datagram
	// serializes in ~16ms; a burst of 5 must arrive spaced out.
	s := New(Config{Profile: func(_, _ id.Node) Link {
		return Link{Delay: time.Millisecond, Bandwidth: 10000}
	}})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.At(10*time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: uint64(i),
				Body: make([]byte, 100)})
		}
	})
	s.Run(time.Second)
	if len(b.got) != 5 {
		t.Fatalf("delivered %d of 5", len(b.got))
	}
	for i := 1; i < len(b.got); i++ {
		gap := b.got[i].at.Sub(b.got[i-1].at)
		if gap < 10*time.Millisecond {
			t.Fatalf("datagrams %d,%d only %v apart; queueing not modeled", i-1, i, gap)
		}
	}
	// Total queueing: the 5th datagram should arrive ~5 serialization
	// times after the send instant.
	last := b.got[4].at.Sub(time.Unix(0, 0).UTC().Add(10 * time.Millisecond))
	if last < 60*time.Millisecond {
		t.Fatalf("5th datagram after only %v", last)
	}
}

func TestSimUnlimitedBandwidthUnchanged(t *testing.T) {
	s := New(Config{Profile: LANProfile(time.Millisecond, 0, 0)})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.At(time.Millisecond, func() {
		for i := 0; i < 3; i++ {
			a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: uint64(i)})
		}
	})
	s.Run(100 * time.Millisecond)
	if len(b.got) != 3 {
		t.Fatalf("delivered %d", len(b.got))
	}
	// All arrive at the same instant: no serialization on infinite links.
	if !b.got[0].at.Equal(b.got[2].at) {
		t.Fatalf("infinite-bandwidth datagrams spread: %v vs %v",
			b.got[0].at, b.got[2].at)
	}
}

func TestSimBlockDirected(t *testing.T) {
	s := New(Config{})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })

	s.At(time.Millisecond, func() { s.BlockDirected(1, 2) })
	s.At(10*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 1})
		b.env.Send(1, &wire.Message{Kind: wire.KindData, Seq: 2})
	})
	s.At(20*time.Millisecond, func() { s.UnblockDirected(1, 2) })
	s.At(30*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 3})
	})
	s.Run(100 * time.Millisecond)

	// The asymmetry: 1→2 was dropped while 2→1 flowed.
	if len(b.got) != 1 || b.got[0].seq != 3 {
		t.Fatalf("blocked direction delivered %+v, want only seq 3", b.got)
	}
	if len(a.got) != 1 || a.got[0].seq != 2 {
		t.Fatalf("reverse direction delivered %+v, want seq 2", a.got)
	}
}

func TestSimHealClearsDirectedBlocks(t *testing.T) {
	s := New(Config{})
	var a, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.At(time.Millisecond, func() { s.BlockDirected(1, 2) })
	s.At(10*time.Millisecond, func() { s.Heal() })
	s.At(20*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 9})
	})
	s.Run(100 * time.Millisecond)
	if len(b.got) != 1 || b.got[0].seq != 9 {
		t.Fatalf("heal did not clear the block: %+v", b.got)
	}
}

// reachable mirrors the engines' local reachability interface.
type reachable interface{ CanReach(id.Node) bool }

func TestSimAddressing(t *testing.T) {
	s := New(Config{})
	s.EnableAddressing()
	var a, b, c *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a = newEcho(env); return a })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })
	s.AddNode(3, func(env proto.Env) proto.Handler { c = newEcho(env); return c })

	// Only node 2 is configured with node 1's address.
	s.Know(2, 1)
	s.At(5*time.Millisecond, func() {
		b.env.Send(1, &wire.Message{Kind: wire.KindData, Seq: 1}) // delivers, teaches 1 about 2
		a.env.Send(3, &wire.Message{Kind: wire.KindData, Seq: 2}) // dropped: 1 has no route to 3
	})
	s.At(15*time.Millisecond, func() {
		a.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 3}) // works: learned from seq 1
	})
	s.Run(100 * time.Millisecond)

	if len(a.got) != 1 || a.got[0].seq != 1 {
		t.Fatalf("node 1 got %+v, want seq 1", a.got)
	}
	if len(b.got) != 1 || b.got[0].seq != 3 {
		t.Fatalf("node 2 got %+v, want seq 3 (return address learned)", b.got)
	}
	if len(c.got) != 0 {
		t.Fatalf("node 3 got %+v despite being unknown to the sender", c.got)
	}

	r := a.env.(reachable)
	if !r.CanReach(2) {
		t.Fatal("node 1 should reach node 2 after hearing from it")
	}
	if r.CanReach(3) {
		t.Fatal("node 1 should not reach node 3: no address known")
	}
	if r.CanReach(99) {
		t.Fatal("CanReach(unknown node) should be false")
	}
}

func TestSimReplace(t *testing.T) {
	s := New(Config{Tick: 10 * time.Millisecond})
	var a1, a2, b *echoHandler
	s.AddNode(1, func(env proto.Env) proto.Handler { a1 = newEcho(env); return a1 })
	s.AddNode(2, func(env proto.Env) proto.Handler { b = newEcho(env); return b })

	s.At(25*time.Millisecond, func() {
		s.Replace(1, func(env proto.Env) proto.Handler { a2 = newEcho(env); return a2 })
	})
	s.At(30*time.Millisecond, func() {
		b.env.Send(1, &wire.Message{Kind: wire.KindData, Seq: 5})
	})
	s.Run(200 * time.Millisecond)

	if len(a2.got) != 1 || a2.got[0].seq != 5 {
		t.Fatalf("replacement handler got %+v, want seq 5", a2.got)
	}
	if len(a1.got) != 0 {
		t.Fatalf("replaced handler still receiving: %+v", a1.got)
	}
	// The old tick chain must stop at the replacement and exactly one new
	// chain must drive the new handler: evenly spaced, no double ticks.
	cut := time.Unix(0, 0).UTC().Add(25 * time.Millisecond)
	for _, at := range a1.tickedAt {
		if at.After(cut) {
			t.Fatalf("old handler ticked at %v, after its replacement", at)
		}
	}
	if len(a2.tickedAt) < 10 {
		t.Fatalf("replacement handler got %d ticks, want ~17", len(a2.tickedAt))
	}
	for i := 1; i < len(a2.tickedAt); i++ {
		if d := a2.tickedAt[i].Sub(a2.tickedAt[i-1]); d != 10*time.Millisecond {
			t.Fatalf("replacement tick gap %v, want 10ms (double tick chain?)", d)
		}
	}
}

func TestSimReplaceUnknownPanics(t *testing.T) {
	s := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Replace of an unknown node did not panic")
		}
	}()
	s.Replace(7, func(env proto.Env) proto.Handler { return newEcho(env) })
}

// windowedHandler logs every call the simulator makes, proto.Windowed's
// included, with the virtual time of the window closes.
type windowedHandler struct {
	window  time.Duration
	log     []string
	closeAt []time.Duration
	sim     *Sim
}

func (h *windowedHandler) OnMessage(id.Node, *wire.Message) { h.log = append(h.log, "msg") }
func (h *windowedHandler) OnTick(time.Time)                 { h.log = append(h.log, "tick") }
func (h *windowedHandler) Window() time.Duration            { return h.window }
func (h *windowedHandler) OnActivationEnd()                 { h.log = append(h.log, "end") }
func (h *windowedHandler) OnWindow(time.Time) {
	h.log = append(h.log, "window")
	h.closeAt = append(h.closeAt, h.sim.Elapsed())
}

// TestSimWindowed: with Config.Windowed the simulator ends every event a
// node handles — a tick, a delivery, a window close, a scripted action —
// with OnActivationEnd and closes windows on the handler's own cadence in
// virtual time; without it (the default) it makes neither call.
func TestSimWindowed(t *testing.T) {
	run := func(windowed bool, window time.Duration) (*windowedHandler, *windowedHandler) {
		s := New(Config{Seed: 3, Tick: 10 * time.Millisecond, Windowed: windowed})
		a := &windowedHandler{window: window, sim: s}
		b := &windowedHandler{window: window, sim: s}
		var envA proto.Env
		s.AddNode(1, func(env proto.Env) proto.Handler { envA = env; return a })
		s.AddNode(2, func(proto.Env) proto.Handler { return b })
		s.At(20500*time.Microsecond, func() { envA.Send(2, &wire.Message{Kind: wire.KindData}) })
		s.Run(30 * time.Millisecond)
		return a, b
	}

	a, b := run(false, 3*time.Millisecond)
	for _, h := range []*windowedHandler{a, b} {
		for _, ev := range h.log {
			if ev == "end" || ev == "window" {
				t.Fatalf("default simulator made a windowed call: %v", h.log)
			}
		}
	}

	a, b = run(true, 3*time.Millisecond)
	if len(a.closeAt) != 10 {
		t.Fatalf("%d window closes in 30 ms at a 3 ms window, want 10: %v", len(a.closeAt), a.closeAt)
	}
	for i, at := range a.closeAt {
		if want := time.Duration(i+1) * 3 * time.Millisecond; at != want {
			t.Fatalf("window close %d at %v, want %v", i, at, want)
		}
	}
	for _, h := range []*windowedHandler{a, b} {
		// Every call is followed by its activation's end; the scripted
		// action, which belongs to no node, ends one on every node.
		ends, others := 0, 0
		for i, ev := range h.log {
			if ev == "end" {
				ends++
				continue
			}
			others++
			if i+1 == len(h.log) || h.log[i+1] != "end" {
				t.Fatalf("%q at %d not followed by the activation end: %v", ev, i, h.log)
			}
		}
		if ends != others+1 {
			t.Fatalf("%d activation ends for %d events plus one scripted action: %v", ends, others, h.log)
		}
	}
	if n := countEv(b.log, "msg"); n != 1 {
		t.Fatalf("node 2 received %d messages, want 1", n)
	}

	// A window no shorter than the tick: the tick closes it, no cadence
	// of its own.
	a, _ = run(true, 10*time.Millisecond)
	if ticks := countEv(a.log, "tick"); len(a.closeAt) != ticks || ticks == 0 {
		t.Fatalf("%d window closes for %d ticks", len(a.closeAt), ticks)
	}
	for i, ev := range a.log {
		if ev == "tick" && a.log[i+1] != "window" {
			t.Fatalf("tick at %d not followed by the window close: %v", i, a.log)
		}
	}
}

func countEv(log []string, ev string) int {
	n := 0
	for _, e := range log {
		if e == ev {
			n++
		}
	}
	return n
}
