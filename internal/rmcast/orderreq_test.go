package rmcast

import (
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// tapped is one datagram an engine sent.
type tapped struct {
	from, to id.Node
	kind     wire.Kind
	at       time.Duration
}

// tapEnv records every datagram its engine sends into log.
type tapEnv struct {
	proto.Env
	sim *netsim.Sim
	log *[]tapped
}

func (t tapEnv) Send(to id.Node, m *wire.Message) {
	*t.log = append(*t.log, tapped{from: t.Self(), to: to, kind: m.Kind, at: t.sim.Elapsed()})
	t.Env.Send(to, m)
}

// buildTapped is buildStatic with every datagram recorded into log.
func buildTapped(s *netsim.Sim, n int, log *[]tapped) map[id.Node]*rmNode {
	return buildStaticEnv(s, n, Total, func(env proto.Env) proto.Env {
		return tapEnv{Env: env, sim: s, log: log}
	})
}

// requests returns the ordering requests in log.
func requests(log []tapped) []tapped {
	var out []tapped
	for _, d := range log {
		if d.kind == wire.KindNackBatch {
			out = append(out, d)
		}
	}
	return out
}

// TestTotalOrderLosslessSendsNoRequests: on a lossless LAN every
// announcement arrives within one announcement period plus a round trip to
// the sequencer of the data it orders, so no member ever asks for ordering
// state, however long traffic keeps messages queued for their turn.
func TestTotalOrderLosslessSendsNoRequests(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		t.Run(map[bool]string{false: "tick", true: "windowed"}[windowed], func(t *testing.T) {
			s := netsim.New(netsim.Config{
				Seed:     41,
				Profile:  netsim.LANProfile(time.Millisecond, 0, 0),
				Windowed: windowed,
			})
			var log []tapped
			nodes := buildTapped(s, 4, &log)
			want := saturate(s, nodes, []id.Node{1, 2, 3, 4}, 10*time.Millisecond, time.Second, 3*time.Millisecond)
			s.Run(2 * time.Second)
			sameOrder(t, nodes, want)
			if reqs := requests(log); len(reqs) > 0 {
				t.Fatalf("%d ordering requests on a lossless LAN, the first %+v", len(reqs), reqs[0])
			}
		})
	}
}

// TestTotalOrderLostAnnouncementAsksSequencer: a member that missed one
// announcement asks the sequencer alone, and the sequencer's answer lets
// it deliver in the group's order.
func TestTotalOrderLostAnnouncementAsksSequencer(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 42})
	var log []tapped
	nodes := buildTapped(s, 4, &log)
	s.At(100*time.Millisecond, func() {
		s.BlockDirected(1, 3) // the announcement of "a" never reaches 3
		nodes[2].eng.Multicast([]byte("a"))
	})
	s.At(110*time.Millisecond, func() { s.UnblockDirected(1, 3) })
	s.Run(2 * time.Second)
	sameOrder(t, nodes, 1)
	reqs := requests(log)
	if len(reqs) == 0 {
		t.Fatal("no ordering request: the lost announcement was recovered some other way")
	}
	for _, r := range reqs {
		if r.from != 3 || r.to != 1 {
			t.Fatalf("ordering requests %+v, want only 3 → sequencer 1", reqs)
		}
	}
}

// TestTotalOrderRetryAsksEveryMember: when the sequencer stays silent the
// retry goes to every member, and one that admitted the missing unit
// answers: order stays recoverable without the sequencer.
func TestTotalOrderRetryAsksEveryMember(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 43})
	var log []tapped
	nodes := buildTapped(s, 4, &log)
	s.At(100*time.Millisecond, func() {
		s.BlockDirected(1, 3)
		nodes[2].eng.Multicast([]byte("a"))
	})
	s.At(110*time.Millisecond, func() { s.Crash(1) }) // announced to 2 and 4 only
	s.Run(2 * time.Second)
	for _, m := range []id.Node{2, 3, 4} {
		if len(nodes[m].got) != 1 {
			t.Fatalf("node %s delivered %d of 1", m, len(nodes[m].got))
		}
	}
	asked := map[id.Node]bool{}
	for _, r := range requests(log) {
		if r.from == 3 {
			asked[r.to] = true
		}
	}
	if !asked[1] || !asked[2] || !asked[4] {
		t.Fatalf("node 3 asked %v, want the sequencer and then every member", asked)
	}
	answered := false
	for _, d := range log {
		answered = answered || (d.kind == wire.KindOrderRange && d.to == 3 && d.from != 1)
	}
	if !answered {
		t.Fatal("no member but the sequencer sent node 3 ordering state")
	}
}
