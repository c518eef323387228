package noderun

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// collector is a Handler that records events under a lock so tests can
// inspect it while the loop runs. The changed channel pulses on every
// recorded event, letting tests wait without polling sleeps.
type collector struct {
	env proto.Env

	mu      sync.Mutex
	msgs    []uint64
	ticks   int
	changed chan struct{}
}

func newCollector(env proto.Env) *collector {
	return &collector{env: env, changed: make(chan struct{}, 1)}
}

func (c *collector) pulse() {
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

func (c *collector) OnMessage(_ id.Node, msg *wire.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, msg.Seq)
	c.mu.Unlock()
	c.pulse()
}

func (c *collector) OnTick(time.Time) {
	c.mu.Lock()
	c.ticks++
	c.mu.Unlock()
	c.pulse()
}

// waitFor blocks until cond holds, woken by the collector's event pulses.
func waitFor(t *testing.T, c *collector, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for !cond() {
		select {
		case <-c.changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (c *collector) messageCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) tickCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

func TestRunnerDeliversMessages(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	epA, _ := f.Attach(1)
	epB, _ := f.Attach(2)

	var ca, cb *collector
	ra := Start(epA, func(env proto.Env) proto.Handler { ca = newCollector(env); return ca })
	rb := Start(epB, func(env proto.Env) proto.Handler { cb = newCollector(env); return cb })
	defer ra.Stop()
	defer rb.Stop()

	ok := ra.Do(func() {
		ca.env.Send(2, &wire.Message{Kind: wire.KindData, Seq: 42})
	})
	if !ok {
		t.Fatal("Do returned false on a running runner")
	}

	waitFor(t, cb, "message delivery", func() bool { return cb.messageCount() > 0 })
}

func TestRunnerTicks(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	ep, _ := f.Attach(1)
	var c *collector
	r := Start(ep, func(env proto.Env) proto.Handler { c = newCollector(env); return c },
		WithTick(5*time.Millisecond))
	defer r.Stop()

	waitFor(t, c, "three ticks", func() bool { return c.tickCount() >= 3 })
}

func TestRunnerStopIdempotent(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	ep, _ := f.Attach(1)
	r := Start(ep, func(env proto.Env) proto.Handler { return &collector{env: env} })
	r.Stop()
	r.Stop()
}

func TestRunnerDoAfterStop(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	ep, _ := f.Attach(1)
	r := Start(ep, func(env proto.Env) proto.Handler { return &collector{env: env} })
	r.Stop()
	if r.Do(func() {}) {
		t.Fatal("Do succeeded after Stop")
	}
}

func TestRunnerDoSerialized(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	ep, _ := f.Attach(1)
	var c *collector
	r := Start(ep, func(env proto.Env) proto.Handler { c = &collector{env: env}; return c })
	defer r.Stop()

	// Many concurrent Do calls mutating engine state must all run.
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(func() { counter++ })
		}()
	}
	wg.Wait()
	final := 0
	r.Do(func() { final = counter })
	if final != 50 {
		t.Fatalf("counter = %d, want 50", final)
	}
}

// exclusive is a windowed handler that counts every call made while
// another is still running: activations must never overlap, whichever
// goroutine runs them.
type exclusive struct {
	busy     atomic.Bool
	overlaps atomic.Int64
	calls    atomic.Int64
	msgs     atomic.Int64
}

func (h *exclusive) enter() {
	if !h.busy.CompareAndSwap(false, true) {
		h.overlaps.Add(1)
		return
	}
	h.calls.Add(1)
	runtime.Gosched() // widen the window a second caller could slip into
	h.busy.Store(false)
}

func (h *exclusive) OnMessage(id.Node, *wire.Message) { h.msgs.Add(1); h.enter() }
func (h *exclusive) OnTick(time.Time)                 { h.enter() }
func (h *exclusive) Window() time.Duration            { return 500 * time.Microsecond }
func (h *exclusive) OnWindow(time.Time)               { h.enter() }
func (h *exclusive) OnActivationEnd()                 { h.enter() }

// udpPair returns two loopback UDP endpoints, 1 and 2, that know each
// other. Endpoint 1 pushes its batches into a runner started on it.
func udpPair(t *testing.T) (ep, peer *transport.UDPEndpoint) {
	t.Helper()
	ep, err := transport.ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err = transport.ListenUDP(2, "127.0.0.1:0")
	if err != nil {
		ep.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		peer.Close()
		ep.Close()
	})
	if err := ep.AddPeer(2, peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := peer.AddPeer(1, ep.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return ep, peer
}

// TestDoNeverOverlapsActivations hammers Do from four goroutines while
// inbound bursts, ticks and window closes flow, and checks that no two
// handler calls ever ran at once: over the fabric, whose bursts the loop
// goroutine drains, and over UDP, whose batches the endpoint's reading
// goroutine activates itself.
func TestDoNeverOverlapsActivations(t *testing.T) {
	for _, kind := range []string{"fabric", "udp"} {
		t.Run(kind, func(t *testing.T) {
			var ep, peer transport.Endpoint
			if kind == "udp" {
				ep, peer = udpPair(t)
			} else {
				f := transport.NewFabric()
				defer f.Close()
				ep, _ = f.Attach(1)
				peer, _ = f.Attach(2)
			}
			h := &exclusive{}
			r := Start(ep, func(proto.Env) proto.Handler { return h }, WithTick(time.Millisecond))
			defer r.Stop()
			if p, ok := ep.(transport.Pusher); ok && p.SetReceiver(func([]transport.Inbound) {}) {
				t.Fatal("the runner did not attach as the endpoint's receiver")
			}

			stop, sent := make(chan struct{}), make(chan struct{})
			go func() { // inbound traffic, in bursts
				defer close(sent)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < 16; i++ {
						_ = peer.Send(1, &wire.Message{Kind: wire.KindData, Seq: uint64(i)})
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						if !r.Do(h.enter) {
							t.Error("Do refused on a running runner")
							return
						}
					}
				}()
			}
			wg.Wait()
			for deadline := time.Now().Add(2 * time.Second); h.msgs.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("no inbound message reached the handler")
				}
			}
			close(stop)
			<-sent
			if n := h.overlaps.Load(); n != 0 {
				t.Fatalf("%d handler calls overlapped another (of %d)", n, h.calls.Load())
			}
		})
	}
}

// TestStopWhileReaderWaits stops a runner while the endpoint's reading
// goroutine is blocked on the activation lock with a batch in hand. Stop
// and then Close must return, and no activation may run once Stop has
// returned: not the waiting batch if the loop's exit took the lock first,
// and not a datagram that arrives later.
func TestStopWhileReaderWaits(t *testing.T) {
	ep, peer := udpPair(t)
	reg := stats.NewRegistry()
	ep.SetMetrics(reg)
	c := &collector{changed: make(chan struct{}, 1)}
	r := Start(ep, func(env proto.Env) proto.Handler { c.env = env; return c }, WithTick(time.Hour))

	held, release := make(chan struct{}), make(chan struct{})
	doDone := make(chan bool)
	go func() {
		doDone <- r.Do(func() {
			close(held)
			<-release
		})
	}()
	<-held
	if err := peer.Send(1, &wire.Message{Kind: wire.KindData, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// The reader counts a datagram just before it takes the lock.
	for deadline := time.Now().Add(2 * time.Second); reg.Counter("transport.datagrams_recv").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never received the datagram")
		}
	}
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	time.Sleep(5 * time.Millisecond)
	close(release)
	if !<-doDone {
		t.Fatal("the Do that held the lock did not run")
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return")
	}
	atStop := c.messageCount()
	if err := peer.Send(1, &wire.Message{Kind: wire.KindData, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after Stop")
	}
	if n := c.messageCount(); n != atStop {
		t.Fatalf("%d messages were activated after Stop returned", n-atStop)
	}
}

func TestRunnerStopsWhenEndpointCloses(t *testing.T) {
	f := transport.NewFabric()
	defer f.Close()
	ep, _ := f.Attach(1)
	r := Start(ep, func(env proto.Env) proto.Handler { return &collector{env: env} })
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("runner did not stop after endpoint close")
	}
}

// eventLog is the shared, ordered record of what a scripted endpoint and a
// windowed handler saw, so tests can check how the calls interleave.
type eventLog struct {
	mu      sync.Mutex
	events  []string
	changed chan struct{}
}

func newEventLog() *eventLog { return &eventLog{changed: make(chan struct{}, 1)} }

func (l *eventLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	select {
	case l.changed <- struct{}{}:
	default:
	}
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func (l *eventLog) count(ev string) int {
	n := 0
	for _, e := range l.snapshot() {
		if e == ev {
			n++
		}
	}
	return n
}

// waitCount blocks until ev was logged at least n times.
func (l *eventLog) waitCount(t *testing.T, ev string, n int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for l.count(ev) < n {
		select {
		case <-l.changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %d × %q; log: %v", n, ev, l.snapshot())
		}
	}
}

// scriptEP is an endpoint whose receive queue the test fills by hand and
// whose batch surface logs every queued send and every flush.
type scriptEP struct {
	log  *eventLog
	recv chan transport.Inbound
}

var _ transport.BatchSender = (*scriptEP)(nil)

func (e *scriptEP) Self() id.Node                          { return 1 }
func (e *scriptEP) Send(id.Node, *wire.Message) error      { e.log.add("send-unbatched"); return nil }
func (e *scriptEP) Recv() <-chan transport.Inbound         { return e.recv }
func (e *scriptEP) Close() error                           { return nil }
func (e *scriptEP) SendBatch(id.Node, *wire.Message) error { e.log.add("queue"); return nil }
func (e *scriptEP) Flush() error                           { e.log.add("flush"); return nil }

// windowedRec is a proto.Windowed handler that logs every call and sends
// one datagram from OnActivationEnd, as a sequencer announcing would.
type windowedRec struct {
	env    proto.Env
	log    *eventLog
	window time.Duration
}

var _ proto.Windowed = (*windowedRec)(nil)

func (h *windowedRec) OnMessage(id.Node, *wire.Message) { h.log.add("msg") }
func (h *windowedRec) OnTick(time.Time)                 { h.log.add("tick") }
func (h *windowedRec) Window() time.Duration            { return h.window }
func (h *windowedRec) OnWindow(time.Time)               { h.log.add("window") }
func (h *windowedRec) OnActivationEnd() {
	h.log.add("end")
	h.env.Send(2, &wire.Message{Kind: wire.KindData})
}

func startWindowed(log *eventLog, recv chan transport.Inbound, tick, window time.Duration) *Runner {
	return Start(&scriptEP{log: log, recv: recv}, func(env proto.Env) proto.Handler {
		return &windowedRec{env: env, log: log, window: window}
	}, WithTick(tick))
}

// TestActivationEndOncePerActivationBeforeFlush: a burst of three inbound
// messages and an injected call are two activations; each ends with the
// hook, whose send is queued before the activation's one flush.
func TestActivationEndOncePerActivationBeforeFlush(t *testing.T) {
	log := newEventLog()
	recv := make(chan transport.Inbound, 3)
	for i := 0; i < 3; i++ {
		recv <- transport.Inbound{From: 2, Msg: &wire.Message{Kind: wire.KindData}}
	}
	r := startWindowed(log, recv, time.Hour, time.Hour)
	log.waitCount(t, "flush", 1)
	if !r.Do(func() { log.add("call") }) {
		t.Fatal("Do returned false on a running runner")
	}
	log.waitCount(t, "flush", 2)
	r.Stop()
	want := []string{
		"msg", "msg", "msg", "end", "queue", "flush",
		"call", "end", "queue", "flush",
	}
	got := log.snapshot()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log = %v, want %v", got, want)
		}
	}
	// The loop has exited: nothing can reach the handler any more.
	recv <- transport.Inbound{From: 2, Msg: &wire.Message{Kind: wire.KindData}}
	if r.Do(func() {}) {
		t.Fatal("Do succeeded after Stop")
	}
	if after := log.snapshot(); len(after) != len(want) {
		t.Fatalf("handler called after Stop: %v", after[len(want):])
	}
}

// TestWindowCadence: the second cadence runs for a handler that asks for a
// window shorter than the tick, each close being an activation of its own,
// and stops with the runner.
func TestWindowCadence(t *testing.T) {
	log := newEventLog()
	r := startWindowed(log, make(chan transport.Inbound), time.Hour, time.Millisecond)
	log.waitCount(t, "flush", 3)
	r.Stop()
	got := log.snapshot()
	for i, ev := range got {
		if want := []string{"window", "end", "queue", "flush"}[i%4]; ev != want {
			t.Fatalf("event %d = %q, want %q; log: %v", i, ev, want, got)
		}
	}
	time.Sleep(5 * time.Millisecond) // several windows' worth
	if after := log.snapshot(); len(after) != len(got) {
		t.Fatalf("window cadence outlived the runner: %v", after[len(got):])
	}
}

// TestNoWindowUnlessAsked: a handler whose Window is zero gets neither
// call, and neither does one that does not implement proto.Windowed.
func TestNoWindowUnlessAsked(t *testing.T) {
	log := newEventLog()
	r := startWindowed(log, make(chan transport.Inbound), time.Millisecond, 0)
	log.waitCount(t, "flush", 3)
	r.Stop()
	if n := log.count("window") + log.count("end"); n != 0 {
		t.Fatalf("handler with no window got %d windowed calls: %v", n, log.snapshot())
	}
}

// TestTickClosesWindowWhenShortEnough: with a tick no longer than the
// window there is no second cadence; each tick closes a window.
func TestTickClosesWindowWhenShortEnough(t *testing.T) {
	log := newEventLog()
	r := startWindowed(log, make(chan transport.Inbound), time.Millisecond, time.Hour)
	log.waitCount(t, "flush", 3)
	r.Stop()
	got := log.snapshot()
	for i, ev := range got {
		if want := []string{"tick", "window", "end", "queue", "flush"}[i%5]; ev != want {
			t.Fatalf("event %d = %q, want %q; log: %v", i, ev, want, got)
		}
	}
}
