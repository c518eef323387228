// Package noderun drives a protocol stack in real time over a
// transport.Endpoint. It is the live counterpart of internal/netsim. Each
// activation runs on the goroutine that has the work: an inbound batch on
// the goroutine that read it, a tick or window close on the runner's loop
// goroutine, and an application call (Do) on the caller's own goroutine.
// Every activation holds the runner's lock, so it is serialized with
// every other activation of the node, preserving the engines'
// single-threaded execution model. A send's datagrams, and the sender's
// own delivery, happen inside the Do call that made it.
//
// Inbound traffic reaches the one activation function, activate, in one
// of two ways. An endpoint that implements transport.Pusher (UDP) calls
// it on its reading goroutine with each socket batch, so a datagram goes
// from recvmmsg to OnMessage without a goroutine hand-off. Any other
// endpoint (the in-process Fabric, a decorating wrapper) is read through
// Recv: the loop goroutine drains a burst from the channel and activates
// it. The Fabric has to stay pull-based: it delivers zero-delay copies on
// the sender's goroutine, inside the sender's own activation, so pushing
// would take two runners' locks in opposite orders.
//
// No activation may call Stop, or close the node that owns the runner:
// Stop waits for the loop, and closing a pushing endpoint waits for its
// reading goroutine, either of which may be the one running the
// activation (an OnEvent callback included).
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

// maxBurst bounds how many queued inbound messages one activation of a
// pull-mode loop takes from Recv before flushing and re-checking the
// ticker and stop channels: about two recvmmsg batches' worth.
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
	// goroutine, the endpoint's reading goroutine or a caller of Do. It
	// is a one-slot channel, not a sync.Mutex, because a channel hands
	// over in arrival order: a Do caller in a tight loop retakes a
	// sync.Mutex before the waiter it woke gets to run, holding off the
	// loop for up to a 10 ms scheduler slice. stopped, set under it as
	// the loop exits, makes Do refuse and activate drop its batch.
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
// it on ep until Stop is called (or, when the runner reads ep through
// Recv, until ep closes its queue). The constructor receives the node's
// Env, exactly as under simulation.
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
	var recv <-chan transport.Inbound // nil: the endpoint pushes
	if p, ok := ep.(transport.Pusher); !ok || !p.SetReceiver(r.activate) {
		recv = ep.Recv()
	}
	go r.loop(recv)
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

// activate runs one inbound batch as one activation: OnMessage for each
// message in order, then endActivation. After Stop it drops the batch.
func (r *Runner) activate(batch []transport.Inbound) {
	r.lock <- struct{}{}
	if !r.stopped {
		for _, in := range batch {
			r.handler.OnMessage(in.From, in.Msg)
		}
		r.endActivation()
	}
	<-r.lock
}

// Stop terminates the event loop and waits for it to exit; by then no
// activation is running, Do refuses and pushed batches are dropped. It
// does not close the endpoint; the caller owns it. Stop is idempotent.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stopping) })
	<-r.done
}

// endActivation gives a windowed handler its last word and then drains
// the endpoint's send queue, once per activation.
func (r *Runner) endActivation() {
	if r.win != nil {
		r.win.OnActivationEnd()
	}
	if r.bs != nil {
		_ = r.bs.Flush()
	}
}

// loop is the node's event loop goroutine. Each iteration handles one
// event — a tick, a window close or, when recv is not nil, one bounded
// burst drained from it — as one activation under the runner's lock,
// which ends with exactly one flush of the transport's send queue, so
// all datagrams an activation produced coalesce.
func (r *Runner) loop(recv <-chan transport.Inbound) {
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
	var burst []transport.Inbound
	for {
		select {
		case <-r.stopping:
			return
		case in, ok := <-recv:
			if !ok {
				return
			}
			burst, ok = drain(recv, append(burst[:0], in))
			r.activate(burst)
			clear(burst)
			if !ok {
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

// drain appends to burst what recv holds right now, up to maxBurst
// messages, and reports whether recv is still open.
func drain(recv <-chan transport.Inbound, burst []transport.Inbound) ([]transport.Inbound, bool) {
	for len(burst) < maxBurst {
		select {
		case in, ok := <-recv:
			if !ok {
				return burst, false
			}
			burst = append(burst, in)
		default:
			return burst, true
		}
	}
	return burst, true
}
