package rmcast

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/vclock"
	"scalamedia/internal/wire"
)

// stepEnv is a hand-driven environment: the test sets the clock and
// collects what the engine sends, copied, since engines reuse messages.
type stepEnv struct {
	self id.Node
	now  time.Time
	sent []sentMsg
}

type sentMsg struct {
	to  id.Node
	msg wire.Message
}

func (f *stepEnv) Self() id.Node  { return f.self }
func (f *stepEnv) Now() time.Time { return f.now }
func (f *stepEnv) Send(to id.Node, m *wire.Message) {
	c := *m
	c.Body = append([]byte(nil), m.Body...)
	f.sent = append(f.sent, sentMsg{to: to, msg: c})
}

// take returns and forgets the messages of kind k sent so far.
func (f *stepEnv) take(k wire.Kind) []sentMsg {
	var out, rest []sentMsg
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

// stepPair is an original sender (node 1) and one receiver (node 2) in a
// three-member FIFO view, driven by hand.
func stepPair(t *testing.T) (snd, rcv *Engine, senv, renv *stepEnv) {
	t.Helper()
	t0 := time.Unix(1000, 0)
	view := member.NewView(1, []id.Node{1, 2, 3})
	senv = &stepEnv{self: 1, now: t0}
	renv = &stepEnv{self: 2, now: t0}
	snd = New(senv, Config{Group: 1, Ordering: FIFO})
	rcv = New(renv, Config{Group: 1, Ordering: FIFO})
	snd.SetView(view)
	rcv.SetView(view)
	return snd, rcv, senv, renv
}

// tickUntilRequest ticks the receiver every millisecond until it sends a
// repair request, and returns it with the instant it left.
func tickUntilRequest(t *testing.T, rcv *Engine, renv *stepEnv) (wire.Message, time.Time) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		renv.now = renv.now.Add(time.Millisecond)
		rcv.OnTick(renv.now)
		if reqs := renv.take(wire.KindRepairReq); len(reqs) > 0 {
			return reqs[0].msg, renv.now
		}
	}
	t.Fatal("no repair request within 5 s")
	return wire.Message{}, time.Time{}
}

// TestRequestNamesOnlyTheHole: one message lost among twenty that
// arrived draws exactly one retransmission from the original sender, not
// a resend of everything up to the horizon.
func TestRequestNamesOnlyTheHole(t *testing.T) {
	snd, rcv, senv, renv := stepPair(t)
	for i := 0; i < 21; i++ {
		if err := snd.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range senv.take(wire.KindData) {
		if s.to == 2 && s.msg.Seq != 2 {
			m := s.msg
			rcv.OnMessage(1, &m)
		}
	}
	req, _ := tickUntilRequest(t, rcv, renv)
	if req.Seq != 2 || req.Aux != 2 {
		t.Fatalf("request names [%d, %d], want the hole [2, 2]", req.Seq, req.Aux)
	}
	snd.OnMessage(2, &req)
	seqs := map[uint64]bool{}
	for _, s := range senv.take(wire.KindRetrans) {
		seqs[s.msg.Seq] = true
	}
	if len(seqs) != 1 || !seqs[2] {
		t.Fatalf("the request drew retransmissions of %v, want exactly seq 2", seqs)
	}
}

// TestProgressRearmsRequestTimer: once the first hole fills, the second
// hole's request fires within an un-backed-off timer draw, even though
// the first hole's requests had backed the timer off eightfold.
func TestProgressRearmsRequestTimer(t *testing.T) {
	snd, rcv, senv, renv := stepPair(t)
	for i := 0; i < 5; i++ {
		if err := snd.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range senv.take(wire.KindData) {
		if s.to == 2 && s.msg.Seq != 2 && s.msg.Seq != 4 {
			m := s.msg
			rcv.OnMessage(1, &m)
		}
	}
	// Three unanswered requests for the first hole back the timer off.
	var last time.Time
	for i := 0; i < 3; i++ {
		var req wire.Message
		req, last = tickUntilRequest(t, rcv, renv)
		if req.Seq != 2 {
			t.Fatalf("request %d names seq %d, want the first hole 2", i, req.Seq)
		}
	}
	// The sender's repair of the first hole lands a millisecond later.
	senv.now = last
	snd.OnMessage(2, &wire.Message{Kind: wire.KindRepairReq, Group: 1, View: 1, Sender: 1, Seq: 2, Aux: 2})
	renv.now = last.Add(time.Millisecond)
	filled := renv.now
	for _, s := range senv.take(wire.KindRetrans) {
		if s.to == 2 {
			m := s.msg
			rcv.OnMessage(1, &m)
		}
	}
	req, at := tickUntilRequest(t, rcv, renv)
	if req.Seq != 4 {
		t.Fatalf("next request names seq %d, want the second hole 4", req.Seq)
	}
	sup := rcv.sup
	bound := time.Duration(float64(sup.DefaultDistance)*(sup.C1+sup.C2)) + time.Millisecond
	if wait := at.Sub(filled); wait > bound {
		t.Fatalf("second hole requested %v after the first filled, want within one un-backed-off draw (%v)", wait, bound)
	}
}

// distanceRun multicasts two messages from node 1 over a lossless 1 ms
// link, the first while node 2 is cut off, so node 2 recovers it with one
// request/repair exchange. It returns node 2's engine.
func distanceRun(t *testing.T, dist func(id.Node) time.Duration) *Engine {
	t.Helper()
	s := netsim.New(netsim.Config{
		Seed:    3,
		Profile: func(_, _ id.Node) netsim.Link { return netsim.Link{Delay: time.Millisecond} },
	})
	view := member.NewView(1, []id.Node{1, 2, 3})
	engines := map[id.Node]*Engine{}
	for _, m := range view.Members {
		m := m
		s.AddNode(m, func(env proto.Env) proto.Handler {
			eng := New(env, Config{Group: 1, Ordering: FIFO, Distance: dist})
			eng.SetView(view)
			engines[m] = eng
			return eng
		})
	}
	s.At(10*time.Millisecond, func() { s.Partition([]id.Node{2}) })
	s.At(11*time.Millisecond, func() { _ = engines[1].Multicast([]byte{1}) })
	s.At(15*time.Millisecond, func() { s.Heal() })
	s.At(16*time.Millisecond, func() { _ = engines[1].Multicast([]byte{2}) })
	s.Run(500 * time.Millisecond)
	rcv := engines[2]
	if c := rcv.Counters(); c.Delivered != 2 || c.NacksSent != 1 {
		t.Fatalf("receiver delivered %d after %d requests, want 2 after 1", c.Delivered, c.NacksSent)
	}
	return rcv
}

// TestDistanceMeasuredFromRepairRoundTrip: after one request/repair
// exchange over a 1 ms link the distance to the sender reads 1 ms, and to
// an unmeasured peer the same engine-wide minimum; the measurement
// survives a view change, and an explicit Config.Distance still wins.
func TestDistanceMeasuredFromRepairRoundTrip(t *testing.T) {
	rcv := distanceRun(t, nil)
	if d := rcv.distance(1); d != time.Millisecond {
		t.Fatalf("distance to the sender %v, want 1ms", d)
	}
	if d := rcv.distance(3); d != time.Millisecond {
		t.Fatalf("distance to an unmeasured peer %v, want the engine-wide 1ms", d)
	}
	rcv.SetView(member.NewView(2, []id.Node{1, 2, 3}))
	if d := rcv.distance(1); d != time.Millisecond {
		t.Fatalf("distance after SetView %v, want 1ms", d)
	}

	fixed := distanceRun(t, func(id.Node) time.Duration { return 7 * time.Millisecond })
	if d := fixed.distance(1); d != 7*time.Millisecond {
		t.Fatalf("distance with Config.Distance %v, want its 7ms", d)
	}
}

// TestFlushStopsExcludedSenderTraffic pins a virtual-synchrony bug: once
// a member has flushed for a proposal, traffic of a sender the proposal
// excludes must not reach delivery unless a member the proposal keeps
// relays it. The coordinator's flush gate compares the vectors the
// survivors acknowledged with; an excluded sender's late repair delivered
// here alone (in total order, at the view change's drain) broke
// agreement on the old view's delivery set.
func TestFlushStopsExcludedSenderTraffic(t *testing.T) {
	for _, ord := range []Ordering{FIFO, Causal, Total} {
		env := &stepEnv{self: 2, now: time.Unix(1000, 0)}
		var got []uint64
		e := New(env, Config{Group: 1, Ordering: ord, OnDeliver: func(d Delivery) { got = append(got, d.Seq) }})
		e.SetView(member.NewView(3, []id.Node{1, 2, 3}))
		e.Freeze()
		e.Flush(member.NewView(4, []id.Node{1, 2}))

		late := &wire.Message{Kind: wire.KindRetrans, Group: 1, View: 3, Sender: 3, Seq: 1, Body: []byte{1}}
		if ord == Causal {
			late.Flags |= wire.FlagCausal
			late.TS = vclock.VC{0, 0, 1}
		}
		e.OnMessage(3, late)
		e.SetView(member.NewView(4, []id.Node{1, 2}))
		if len(got) != 0 {
			t.Fatalf("%v: delivered the excluded sender's late message %v", ord, got)
		}

		// The same message relayed by a survivor is delivered: the gate
		// makes every survivor deliver what one of them did.
		env2 := &stepEnv{self: 2, now: time.Unix(1000, 0)}
		got = nil
		e = New(env2, Config{Group: 1, Ordering: ord, OnDeliver: func(d Delivery) { got = append(got, d.Seq) }})
		e.SetView(member.NewView(3, []id.Node{1, 2, 3}))
		e.Freeze()
		e.Flush(member.NewView(4, []id.Node{1, 2}))
		relayed := *late
		e.OnMessage(1, &relayed)
		e.SetView(member.NewView(4, []id.Node{1, 2}))
		if len(got) != 1 {
			t.Fatalf("%v: a survivor's relay of the excluded sender's message delivered %v, want seq 1", ord, got)
		}
	}
}
