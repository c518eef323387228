// Package noderun drives a protocol stack in real time over a
// transport.Endpoint. It is the live counterpart of internal/netsim: one
// goroutine per node reads datagrams and a ticker and feeds both into the
// node's proto.Handler, and Do runs application calls into the engines on
// the caller's own goroutine. Every activation — an inbound burst, a tick,
// a window close or a Do — holds the runner's lock, so it is serialized
// with every other activation of the node, preserving the engines'
// single-threaded execution model. A send's datagrams, and the sender's
// own delivery, happen inside the Do call that made it.
//
// When the endpoint implements transport.BatchSender, the runner routes
// every Env.Send through SendBatch and flushes once at the end of each
// activation. Everything an engine emits during one activation
// (retransmissions, NACK batches, relay envelopes, sequencer order slots)
// therefore leaves the socket in as few syscalls as the transport can
// manage, without the engines knowing batching exists.
//
// A handler that implements proto.Windowed and asks for a window gets two
// more calls: OnActivationEnd just before each of those flushes, and
// OnWindow on a second cadence of its own (or right after OnTick when the
// tick is no longer than the window).
package noderun

import (
	"sync"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// DefaultTick is the protocol tick cadence used when none is configured.
const DefaultTick = 10 * time.Millisecond

// maxBurst bounds how many queued inbound messages one loop iteration
// dispatches before flushing and re-checking the ticker and stop
// channels. It matches the transport batch scale: one iteration absorbs
// about one recvmmsg's worth of datagrams, flushes the replies once,
// and stays responsive to ticks.
const maxBurst = 64

// Runner executes one node's protocol stack on a real transport endpoint.
type Runner struct {
	ep   transport.Endpoint
	bs   transport.BatchSender // non-nil when ep supports send batching
	tick time.Duration

	handler proto.Handler
	win     proto.Windowed // non-nil when the handler asked for a window
	window  time.Duration

	// lock is held for the whole of each activation, by the loop
	// goroutine or by a caller of Do. It is a one-slot channel, not a
	// sync.Mutex, because a channel hands over in arrival order: a Do
	// caller in a tight loop retakes a sync.Mutex before the waiter it
	// woke gets to run, holding off the loop for up to a 10 ms scheduler
	// slice. stopped, set under it as the loop exits, makes Do refuse.
	lock    chan struct{}
	stopped bool

	stopOnce sync.Once
	stopping chan struct{}
	done     chan struct{}
}

// env adapts the runner to proto.Env.
type env struct{ r *Runner }

var _ proto.Env = env{}

func (e env) Self() id.Node  { return e.r.ep.Self() }
func (e env) Now() time.Time { return time.Now() }

// CanReach exposes the endpoint's reachability knowledge (peer-table
// membership on UDP) to the protocol engines. Endpoints without the
// interface report everything reachable, the engines' assumed default.
func (e env) CanReach(to id.Node) bool {
	if r, ok := e.r.ep.(transport.Reachability); ok {
		return r.CanReach(to)
	}
	return true
}
func (e env) Send(to id.Node, msg *wire.Message) {
	// Best-effort datagram semantics: local errors (closed endpoint,
	// unknown peer during reconfiguration) are equivalent to loss, and
	// the reliability layer recovers. On a batching endpoint the send is
	// queued; the runner flushes at the end of the current activation.
	if e.r.bs != nil {
		_ = e.r.bs.SendBatch(to, msg)
		return
	}
	_ = e.r.ep.Send(to, msg)
}

// Option configures a Runner.
type Option func(*Runner)

// WithTick overrides the protocol tick cadence.
func WithTick(d time.Duration) Option {
	return func(r *Runner) {
		if d > 0 {
			r.tick = d
		}
	}
}

// Start builds a node's protocol stack with the given constructor and runs
// it on ep until Stop is called. The constructor receives the node's Env,
// exactly as under simulation.
func Start(ep transport.Endpoint, build func(envp proto.Env) proto.Handler, opts ...Option) *Runner {
	r := &Runner{
		ep:       ep,
		tick:     DefaultTick,
		lock:     make(chan struct{}, 1),
		stopping: make(chan struct{}),
		done:     make(chan struct{}),
	}
	if bs, ok := ep.(transport.BatchSender); ok {
		r.bs = bs
	}
	for _, opt := range opts {
		opt(r)
	}
	r.handler = build(env{r: r})
	if w, ok := r.handler.(proto.Windowed); ok {
		if d := w.Window(); d > 0 {
			r.win, r.window = w, d
		}
	}
	go r.loop()
	return r
}

// Do runs f as an activation of its own on the caller's goroutine,
// serialized with message and tick handling, and ends it like any other
// (OnActivationEnd, then one flush). Use it for application-initiated
// calls into the engines (multicast sends, join requests). It returns
// false without running f once the runner has stopped. f must not call
// Do or Stop: the activation lock is not reentrant.
func (r *Runner) Do(f func()) bool {
	r.lock <- struct{}{}
	defer func() { <-r.lock }()
	if r.stopped {
		return false
	}
	f()
	r.endActivation()
	return true
}

// Stop terminates the event loop and waits for it to exit; by then no
// activation is running and Do refuses. It does not close the endpoint;
// the caller owns it. Stop is idempotent.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stopping) })
	<-r.done
}

// endActivation gives a windowed handler its last word and then drains
// the endpoint's send queue, once per loop iteration.
func (r *Runner) endActivation() {
	if r.win != nil {
		r.win.OnActivationEnd()
	}
	if r.bs != nil {
		_ = r.bs.Flush()
	}
}

// loop is the node's event loop goroutine. Each iteration handles one
// event — or one bounded burst of inbound messages — as one activation
// under the runner's lock, and then flushes the transport's send queue
// exactly once, so all datagrams an activation produced coalesce.
func (r *Runner) loop() {
	defer func() {
		r.lock <- struct{}{} // waits out a Do in progress
		r.stopped = true
		<-r.lock
		close(r.done)
	}()
	ticker := time.NewTicker(r.tick)
	defer ticker.Stop()
	// The window cadence is a ticker too: an absolute schedule, so a late
	// close does not push the following ones back. It stays nil — a case
	// that never fires — for a handler without a window, and when the tick
	// is short enough to close the windows itself.
	var windowC <-chan time.Time
	if r.win != nil && r.tick > r.window {
		wt := time.NewTicker(r.window)
		defer wt.Stop()
		windowC = wt.C
	}
	for {
		select {
		case <-r.stopping:
			return
		case in, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.lock <- struct{}{}
			r.handler.OnMessage(in.From, in.Msg)
			// Absorb the rest of the burst that arrived with it, then
			// flush once for all of it.
			open := true
		burst:
			for i := 1; i < maxBurst; i++ {
				select {
				case in, ok = <-r.ep.Recv():
					if !ok {
						open = false
						break burst
					}
					r.handler.OnMessage(in.From, in.Msg)
				default:
					break burst
				}
			}
			r.endActivation()
			<-r.lock
			if !open {
				return
			}
		case now := <-ticker.C:
			r.lock <- struct{}{}
			r.handler.OnTick(now)
			if r.win != nil && windowC == nil {
				r.win.OnWindow(now)
			}
			r.endActivation()
			<-r.lock
		case now := <-windowC:
			r.lock <- struct{}{}
			r.win.OnWindow(now)
			r.endActivation()
			<-r.lock
		}
	}
}
