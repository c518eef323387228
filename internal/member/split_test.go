package member

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// viewEnv records every message an engine sends, with its destination.
type viewEnv struct {
	self id.Node
	now  time.Time
	sent []viewMsg
}

type viewMsg struct {
	to  id.Node
	msg wire.Message
}

func (f *viewEnv) Self() id.Node  { return f.self }
func (f *viewEnv) Now() time.Time { return f.now }
func (f *viewEnv) Send(to id.Node, m *wire.Message) {
	f.sent = append(f.sent, viewMsg{to: to, msg: *m})
}

// take returns and forgets the messages of kind k sent so far.
func (f *viewEnv) take(k wire.Kind) []viewMsg {
	var out, rest []viewMsg
	for _, s := range f.sent {
		if s.msg.Kind == k {
			out = append(out, s)
		} else {
			rest = append(rest, s)
		}
	}
	f.sent = rest
	return out
}

func viewMessage(k wire.Kind, vid id.View, members ...id.Node) *wire.Message {
	return &wire.Message{
		Kind:  k,
		Group: 1,
		View:  vid,
		Body:  wire.AppendViewBody(nil, wire.ViewBody{View: vid, Members: members}),
	}
}

// TestEvictedNodeStaysOut: a node evicted from the group must not
// reinstall a view it already left when a stale commit of it arrives (a
// coordinator replaying the commit to a node it thinks missed it). The
// node restarted its sequence numbers in the reinstalled view and
// delivered its own seq 1 after seq 2 of the same view number.
func TestEvictedNodeStaysOut(t *testing.T) {
	env := &viewEnv{self: 5, now: time.Unix(1000, 0)}
	e := New(env, Config{Group: 1, Contact: 1})
	e.OnMessage(1, viewMessage(wire.KindViewCommit, 3, 1, 2, 3, 4, 5))
	e.OnMessage(1, viewMessage(wire.KindViewCommit, 5, 1, 2))
	if !e.Evicted() {
		t.Fatal("the commit of a view without the node did not evict it")
	}
	e.OnMessage(3, viewMessage(wire.KindViewCommit, 3, 1, 2, 3, 4, 5))
	if v := e.View(); v.ID != 0 {
		t.Fatalf("evicted node reinstalled %v from a stale commit", v)
	}
	e.OnMessage(3, viewMessage(wire.KindViewPropose, 6, 3, 4, 5))
	if acks := env.take(wire.KindFlushOK); len(acks) != 0 {
		t.Fatalf("evicted node acknowledged a proposal: %+v", acks[0].msg)
	}
}

// TestMemberRefusesConflictingProposal: a member holding an accepted
// proposal that its proposer may already have committed refuses a second
// proposer's view of the same number (two different view 6s), and under
// the primary-partition rule also a higher one that is not the primary
// component of the accepted view. Its answer acknowledges the accepted
// proposal, naming that proposal's proposer, so the second proposer learns
// the number is taken.
func TestMemberRefusesConflictingProposal(t *testing.T) {
	env := &viewEnv{self: 3, now: time.Unix(1000, 0)}
	e := New(env, Config{Group: 1, Contact: 1, PrimaryPartition: true})
	e.OnMessage(1, viewMessage(wire.KindViewCommit, 5, 1, 2, 3))
	first := NewView(6, []id.Node{1, 3})
	e.OnMessage(1, viewMessage(wire.KindViewPropose, 6, 1, 3))
	env.take(wire.KindFlushOK)

	e.OnMessage(2, viewMessage(wire.KindViewPropose, 6, 2, 3))
	if !e.accepted.Equal(first) {
		t.Fatalf("accepted %v over the pending %v", e.accepted, first)
	}
	acks := env.take(wire.KindFlushOK)
	if len(acks) != 1 || acks[0].to != 2 || acks[0].msg.View != 6 || acks[0].msg.Sender != 1 {
		t.Fatalf("answer to the conflicting proposal: %+v, want one ack of node 1's view 6 to node 2", acks)
	}

	e.OnMessage(2, viewMessage(wire.KindViewPropose, 7, 2, 3))
	if !e.accepted.Equal(first) {
		t.Fatalf("accepted %v, which is not the primary component of the pending %v", e.accepted, first)
	}
}

// TestForeignAckDoesNotCommit: a flush acknowledgment names the proposer
// it answers. A coordinator must not count an ack of another proposer's
// view of the same number toward its own proposal; it proposes above that
// number instead.
func TestForeignAckDoesNotCommit(t *testing.T) {
	env := &viewEnv{self: 1, now: time.Unix(1000, 0)}
	e := New(env, Config{Group: 1, Contact: 2})
	e.OnMessage(2, viewMessage(wire.KindViewCommit, 5, 1, 2, 3))
	e.OnMessage(4, &wire.Message{Kind: wire.KindJoinReq, Group: 1, Sender: 4})
	env.now = env.now.Add(10 * time.Millisecond)
	e.OnTick(env.now)
	props := env.take(wire.KindViewPropose)
	if len(props) == 0 || props[0].msg.View != 6 {
		t.Fatalf("coordinator proposals %+v, want view 6", props)
	}
	for _, m := range []id.Node{2, 3, 4} {
		e.OnMessage(m, &wire.Message{Kind: wire.KindFlushOK, Group: 1, View: 6, Seq: 5, Sender: 9})
	}
	if commits := env.take(wire.KindViewCommit); len(commits) != 0 || e.View().ID != 5 {
		t.Fatalf("committed view %v on acks of another proposer's view 6", e.View())
	}
	props = env.take(wire.KindViewPropose)
	if len(props) == 0 || props[len(props)-1].msg.View != 7 {
		t.Fatalf("after a foreign ack of view 6 the coordinator proposed %+v, want view 7", props)
	}
}

// TestTakeoverNumbersAboveAcceptedProposal: a member that accepted the
// old coordinator's proposal and then takes over must not reuse that
// proposal's number, which may be committed (two different view 5s), and
// under the primary-partition rule must not install a successor that is
// not the primary component of it.
func TestTakeoverNumbersAboveAcceptedProposal(t *testing.T) {
	for _, primary := range []bool{false, true} {
		env := &viewEnv{self: 2, now: time.Unix(1000, 0)}
		e := New(env, Config{
			Group: 1, Contact: 1, PrimaryPartition: primary,
			HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 50 * time.Millisecond,
		})
		e.OnMessage(1, viewMessage(wire.KindViewCommit, 4, 1, 2, 5))
		e.OnMessage(1, viewMessage(wire.KindViewPropose, 5, 1, 2))
		// Node 1 falls silent; node 5 keeps heartbeating.
		for i := 0; i < 150; i++ {
			env.now = env.now.Add(2 * time.Millisecond)
			e.OnMessage(5, &wire.Message{Kind: wire.KindHeartbeat, Group: 1})
			e.OnTick(env.now)
		}
		props := env.take(wire.KindViewPropose)
		if primary {
			if len(props) != 0 {
				t.Fatalf("proposed view %d without the primary component of the accepted view 5 [n1 n2]", props[0].msg.View)
			}
			continue
		}
		if len(props) == 0 {
			t.Fatal("the takeover coordinator never proposed")
		}
		if v := props[0].msg.View; v <= 5 {
			t.Fatalf("takeover proposed view %d, reusing a number at or below the accepted view 5", v)
		}
	}
}
