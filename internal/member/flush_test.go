package member

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// fakeVector is a settable delivery state for Config.StabilityVector.
type fakeVector struct {
	acks  []wire.AckEntry
	slots uint64
}

func (v *fakeVector) read(dst []wire.AckEntry) ([]wire.AckEntry, uint64) {
	return append(dst, v.acks...), v.slots
}

// flushRig runs membership engines on hand-driven virtual time: each step
// ticks every engine in node order, and every datagram one sends reaches
// its destination at once. Node 1 coordinates the view {1, 2, 3}, and
// node 3's Leave starts a view change to {1, 2}.
type flushRig struct {
	now   time.Time
	nodes []id.Node
	envs  map[id.Node]*viewEnv
	engs  map[id.Node]*Engine
	vecs  map[id.Node]*fakeVector
	acks  []time.Time // when each FlushOK from node 2 reached node 1
}

const rigJoinRetry = 100 * time.Millisecond

func newFlushRig() *flushRig {
	r := &flushRig{
		now:   time.Unix(1000, 0),
		nodes: []id.Node{1, 2},
		envs:  make(map[id.Node]*viewEnv),
		engs:  make(map[id.Node]*Engine),
		vecs:  make(map[id.Node]*fakeVector),
	}
	for _, n := range r.nodes {
		contact := id.Node(1)
		if n == 1 {
			contact = 2
		}
		r.envs[n] = &viewEnv{self: n, now: r.now}
		r.vecs[n] = &fakeVector{}
		r.engs[n] = New(r.envs[n], Config{
			Group: 1, Contact: contact,
			HeartbeatEvery: 40 * time.Millisecond, SuspectAfter: time.Hour,
			FlushTimeout: time.Hour, JoinRetry: rigJoinRetry,
			StabilityVector: r.vecs[n].read,
		})
		r.engs[n].OnMessage(3, viewMessage(wire.KindViewCommit, 5, 1, 2, 3))
	}
	r.engs[1].OnMessage(3, &wire.Message{Kind: wire.KindLeave, Group: 1, Sender: 3})
	return r
}

// set gives node n the delivery state: sender k+1 delivered through
// seqs[k].
func (r *flushRig) set(n id.Node, seqs ...uint64) {
	r.vecs[n].acks = r.vecs[n].acks[:0]
	for k, s := range seqs {
		r.vecs[n].acks = append(r.vecs[n].acks, wire.AckEntry{Sender: id.Node(k + 1), Seq: s})
	}
}

// step advances virtual time by d, ticks every engine and delivers what
// they send until the network is quiet.
func (r *flushRig) step(d time.Duration) {
	r.now = r.now.Add(d)
	for _, n := range r.nodes {
		r.envs[n].now = r.now
	}
	for _, n := range r.nodes {
		r.engs[n].OnTick(r.now)
		r.deliver()
	}
}

func (r *flushRig) deliver() {
	for moved := true; moved; {
		moved = false
		for _, from := range r.nodes {
			sent := r.envs[from].sent
			r.envs[from].sent = nil
			for _, s := range sent {
				eng := r.engs[s.to]
				if eng == nil {
					continue
				}
				moved = true
				if from == 2 && s.msg.Kind == wire.KindFlushOK {
					r.acks = append(r.acks, r.now)
				}
				msg := s.msg
				eng.OnMessage(from, &msg)
			}
		}
	}
}

// runUntilCommit steps 10 ms at a time until node 1 installs view 6 or
// limit passes, and returns how long that took.
func (r *flushRig) runUntilCommit(limit time.Duration) time.Duration {
	start := r.now
	for r.engs[1].View().ID < 6 && r.now.Sub(start) < limit {
		r.step(10 * time.Millisecond)
	}
	return r.now.Sub(start)
}

// TestRepairedMemberReacksAtOnce: a member that acks a proposal one
// message short, and is then repaired by the flush, sends a second
// FlushOK on its next tick, and the coordinator commits on it instead of
// waiting for the periodic re-ack one JoinRetry later.
func TestRepairedMemberReacksAtOnce(t *testing.T) {
	r := newFlushRig()
	r.set(1, 5, 3, 7)
	r.set(2, 5, 3, 6) // one of node 3's messages short
	r.step(10 * time.Millisecond)
	if len(r.acks) != 1 || r.engs[1].View().ID != 5 {
		t.Fatalf("after the proposal: %d acks, view %d; want 1 ack and the gate still closed", len(r.acks), r.engs[1].View().ID)
	}
	accepted := r.now
	r.step(10 * time.Millisecond)
	r.set(2, 5, 3, 7) // the flush repair lands
	r.step(10 * time.Millisecond)
	if len(r.acks) != 2 {
		t.Fatalf("%d FlushOKs by the tick after the repair, want 2: the repaired member must re-ack at once", len(r.acks))
	}
	if v := r.engs[1].View(); v.ID != 6 {
		t.Fatalf("coordinator in view %d %v after the re-ack, want the commit of view 6", v.ID, v.Members)
	}
	if took := r.now.Sub(accepted); took >= rigJoinRetry {
		t.Fatalf("the view change took %v from the first ack, want less than JoinRetry %v", took, rigJoinRetry)
	}
	if v := r.engs[2].View(); v.ID != 6 {
		t.Fatalf("member in view %d, want the committed view 6", v.ID)
	}
}

// TestCoordinatorCommitsWhenItsOwnRowCatchesUp: when the coordinator's
// own delivery state is the short row, it commits on the tick a flush
// repair completes it, with no further ack to prompt it.
func TestCoordinatorCommitsWhenItsOwnRowCatchesUp(t *testing.T) {
	r := newFlushRig()
	r.set(1, 5, 3, 6) // the coordinator is one of node 3's messages short
	r.set(2, 5, 3, 7)
	r.step(10 * time.Millisecond)
	if len(r.acks) != 1 || r.engs[1].View().ID != 5 {
		t.Fatalf("after the proposal: %d acks, view %d; want 1 ack and the gate still closed", len(r.acks), r.engs[1].View().ID)
	}
	r.step(10 * time.Millisecond)
	r.set(1, 5, 3, 7)
	r.step(10 * time.Millisecond)
	if v := r.engs[1].View(); v.ID != 6 {
		t.Fatalf("coordinator in view %d on the tick its row caught up, want the commit of view 6", v.ID)
	}
	if len(r.acks) != 1 {
		t.Fatalf("%d FlushOKs: the member's state never changed, so it must not have re-acked", len(r.acks))
	}
}

// TestUnchangedMemberSendsNoExtraAcks: a member whose delivery state does
// not move re-acks only on the periodic JoinRetry round, however long the
// view change lasts, so a flush cannot set off a re-ack storm.
func TestUnchangedMemberSendsNoExtraAcks(t *testing.T) {
	r := newFlushRig()
	r.set(1, 5, 3, 6) // the coordinator stays short: the gate never opens
	r.set(2, 5, 3, 7)
	took := r.runUntilCommit(350 * time.Millisecond)
	if r.engs[1].View().ID != 5 {
		t.Fatal("the view committed although the coordinator's row never caught up")
	}
	if want := 1 + int(took/rigJoinRetry); len(r.acks) != want {
		t.Fatalf("%d FlushOKs over %v, want %d: the first and one per JoinRetry", len(r.acks), took, want)
	}
	for i := 1; i < len(r.acks); i++ {
		if gap := r.acks[i].Sub(r.acks[i-1]); gap < rigJoinRetry {
			t.Fatalf("FlushOKs %d and %d only %v apart with no change in state", i-1, i, gap)
		}
	}
}

// TestDeliveryCompareAllocatesNothing: reading an unchanged delivery state
// on a view-change tick allocates nothing once the rows have grown.
func TestDeliveryCompareAllocatesNothing(t *testing.T) {
	r := newFlushRig()
	r.set(2, 5, 3, 7)
	e := r.engs[2]
	e.deliveryMoved()
	if allocs := testing.AllocsPerRun(100, func() {
		if e.deliveryMoved() {
			t.Fatal("unchanged state read as moved")
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per unchanged compare, want 0", allocs)
	}
}
