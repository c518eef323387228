package netsim

import "scalamedia/internal/id"

// Event kinds for the simulator's value-typed queue entries.
const (
	evFunc    uint8 = iota // scripted action (At)
	evTick                 // periodic OnTick for node at epoch
	evDeliver              // datagram arrival from→to carrying buf
	evWindow               // periodic OnWindow for node at epoch (Config.Windowed)
)

// event is one queue entry. Events are plain values: ticks and deliveries
// — the two hot kinds — carry their operands in fields instead of closing
// over them, so scheduling allocates nothing. seq breaks time ties
// deterministically in insertion order; at is nanoseconds of virtual time
// since simulation start.
type event struct {
	at    int64
	seq   uint64
	kind  uint8
	epoch int32
	from  id.Node
	to    id.Node
	node  *simNode
	buf   []byte
	bp    *[]byte
	run   func()
}

// less orders events by (time, insertion seq) — the simulator's total
// execution order.
func (e *event) less(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is the sharded virtual-time priority queue: a calendar ring
// of per-quantum buckets, each an independent small min-heap, plus an
// overflow heap for events beyond the ring's horizon. Near-term events —
// ticks and link-delay deliveries, the overwhelming majority — land in
// small per-quantum heaps instead of one giant heap, and far-future
// scripted actions wait in the overflow until the window reaches them.
// Pop order is exactly (at, seq), identical to a single global heap.
type eventQueue struct {
	width    int64 // quantum span in ns
	cur      int64 // quantum index of the next bucket to drain
	inWin    int   // events currently inside the ring window
	size     int   // total events queued
	buckets  [evqBuckets]eventHeap
	overflow eventHeap
}

// evqBuckets is the calendar ring size; the window spans
// evqBuckets×width of virtual time.
const (
	evqBuckets = 256
	evqMask    = evqBuckets - 1
)

// init sizes the quantum from the tick cadence: a quarter tick keeps each
// bucket to a fraction of one tick round even in lockstep-heavy loads.
func (q *eventQueue) init(tick int64) {
	q.width = tick / 4
	if q.width < int64(50_000) { // 50µs floor
		q.width = 50_000
	}
}

// push enqueues one event.
func (q *eventQueue) push(ev event) {
	qi := ev.at / q.width
	if q.size == 0 {
		q.cur = qi
	}
	if qi < q.cur {
		// Cannot happen for correctly scheduled events (at >= now), but
		// keep the cursor's invariant — the bucket heap still orders it
		// correctly by (at, seq).
		qi = q.cur
	}
	q.size++
	if qi >= q.cur+evqBuckets {
		q.overflow.push(ev)
		return
	}
	q.buckets[qi&evqMask].push(ev)
	q.inWin++
}

// popBefore removes and returns the earliest event if its time is at or
// before deadline; otherwise it returns false and leaves the queue
// untouched.
func (q *eventQueue) popBefore(deadline int64) (event, bool) {
	for q.size > 0 {
		b := &q.buckets[q.cur&evqMask]
		if len(b.ev) > 0 {
			if b.ev[0].at > deadline {
				return event{}, false
			}
			q.size--
			q.inWin--
			return b.pop(), true
		}
		if q.inWin == 0 {
			// Everything queued is past the horizon: jump the window to
			// the overflow's earliest quantum instead of stepping.
			q.cur = q.overflow.ev[0].at / q.width
		} else {
			q.cur++
		}
		// Migrate overflow events the advanced window now covers.
		for len(q.overflow.ev) > 0 {
			oqi := q.overflow.ev[0].at / q.width
			if oqi >= q.cur+evqBuckets {
				break
			}
			mev := q.overflow.pop()
			q.buckets[oqi&evqMask].push(mev)
			q.inWin++
		}
	}
	return event{}, false
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq). Inlined
// rather than container/heap so push/pop touch no interfaces and the
// backing array is reused across the simulation's lifetime.
type eventHeap struct{ ev []event }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.ev[i].less(&h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release buf/run references
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.ev[r].less(&h.ev[l]) {
			c = r
		}
		if !h.ev[c].less(&h.ev[i]) {
			break
		}
		h.ev[i], h.ev[c] = h.ev[c], h.ev[i]
		i = c
	}
	return top
}
