package proto

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// recording is a Handler that logs its events.
type recording struct {
	msgs  []uint64
	ticks []time.Time
}

func (r *recording) OnMessage(_ id.Node, msg *wire.Message) { r.msgs = append(r.msgs, msg.Seq) }
func (r *recording) OnTick(now time.Time)                   { r.ticks = append(r.ticks, now) }

func TestMuxFanout(t *testing.T) {
	a, b := &recording{}, &recording{}
	m := NewMux(a, b)
	m.OnMessage(1, &wire.Message{Kind: wire.KindData, Seq: 5})
	now := time.Unix(100, 0)
	m.OnTick(now)

	for name, r := range map[string]*recording{"a": a, "b": b} {
		if len(r.msgs) != 1 || r.msgs[0] != 5 {
			t.Fatalf("%s msgs = %v", name, r.msgs)
		}
		if len(r.ticks) != 1 || !r.ticks[0].Equal(now) {
			t.Fatalf("%s ticks = %v", name, r.ticks)
		}
	}
}

func TestMuxAdd(t *testing.T) {
	a := &recording{}
	m := NewMux()
	m.OnMessage(1, &wire.Message{Kind: wire.KindData, Seq: 1}) // no handlers: no panic
	m.Add(a)
	m.OnMessage(1, &wire.Message{Kind: wire.KindData, Seq: 2})
	if len(a.msgs) != 1 || a.msgs[0] != 2 {
		t.Fatalf("msgs = %v", a.msgs)
	}
}

func TestMuxOrderPreserved(t *testing.T) {
	var order []string
	mk := func(name string) Handler {
		return handlerFunc{onMsg: func() { order = append(order, name) }}
	}
	m := NewMux(mk("first"), mk("second"), mk("third"))
	m.OnMessage(1, &wire.Message{Kind: wire.KindData})
	if len(order) != 3 || order[0] != "first" || order[2] != "third" {
		t.Fatalf("dispatch order = %v", order)
	}
}

// handlerFunc adapts a closure to Handler for order testing.
type handlerFunc struct{ onMsg func() }

func (h handlerFunc) OnMessage(id.Node, *wire.Message) { h.onMsg() }
func (h handlerFunc) OnTick(time.Time)                 {}

func TestMuxCopiesInitialSlice(t *testing.T) {
	a, b := &recording{}, &recording{}
	handlers := []Handler{a}
	m := NewMux(handlers...)
	handlers[0] = b // mutating the input must not affect the mux
	m.OnMessage(1, &wire.Message{Kind: wire.KindData, Seq: 9})
	if len(a.msgs) != 1 {
		t.Fatal("mux aliases caller slice")
	}
	if len(b.msgs) != 0 {
		t.Fatal("swapped handler received event")
	}
}

// windowedRec is a recording handler that also implements Windowed.
type windowedRec struct {
	recording
	window  time.Duration
	ends    int
	windows int
}

func (w *windowedRec) Window() time.Duration { return w.window }
func (w *windowedRec) OnActivationEnd()      { w.ends++ }
func (w *windowedRec) OnWindow(time.Time)    { w.windows++ }

// TestMuxWindowed: the mux asks for the shortest window any engine wants
// (zero when none does) and forwards the two calls to the Windowed engines
// only.
func TestMuxWindowed(t *testing.T) {
	plain := &recording{}
	if w := NewMux(plain).Window(); w != 0 {
		t.Fatalf("Window over plain handlers = %v, want 0", w)
	}
	off := &windowedRec{}
	a := &windowedRec{window: 5 * time.Millisecond}
	b := &windowedRec{window: 3 * time.Millisecond}
	m := NewMux(plain, off, a)
	m.Add(b)
	if w := m.Window(); w != 3*time.Millisecond {
		t.Fatalf("Window = %v, want 3ms", w)
	}
	m.OnActivationEnd()
	m.OnWindow(time.Unix(1, 0))
	for name, w := range map[string]*windowedRec{"off": off, "a": a, "b": b} {
		if w.ends != 1 || w.windows != 1 {
			t.Fatalf("%s: ends=%d windows=%d, want 1/1", name, w.ends, w.windows)
		}
	}
}
