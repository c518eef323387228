package session

import (
	"fmt"
	"testing"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rtx"
)

// fullNode is one participant running the entire stack — session control
// plus a media sender or receiver — under the simulator.
type fullNode struct {
	sess   *Engine
	recv   *rtx.Receiver
	events []Event
}

// TestFullStackConferenceUnderChurn drives the whole architecture at
// once: a 5-participant session over a lossy network, one speaker
// streaming voice, a mid-call participant crash, and chat traffic. All
// surviving receivers must keep playing media, the membership must
// converge, and the chat must be delivered exactly once everywhere.
func TestFullStackConferenceUnderChurn(t *testing.T) {
	s := netsim.New(netsim.Config{
		Seed:    201,
		Profile: netsim.LANProfile(2*time.Millisecond, 3*time.Millisecond, 0.03),
	})
	const participants = 5
	spec := media.TelephoneAudio(1, "speaker")

	nodes := make(map[id.Node]*fullNode, participants)
	var speaker *rtx.Sender
	for i := 1; i <= participants; i++ {
		nd := id.Node(i)
		contact := id.Node(1)
		if i == 1 {
			contact = id.None
		}
		fn := &fullNode{}
		s.AddNode(nd, func(env proto.Env) proto.Handler {
			fn.sess = New(env, Config{
				Config: core.Config{
					Group:          1,
					Contact:        contact,
					HeartbeatEvery: 40 * time.Millisecond,
					SuspectAfter:   250 * time.Millisecond,
					FlushTimeout:   300 * time.Millisecond,
				},
				OnEvent: func(ev Event) { fn.events = append(fn.events, ev) },
			})
			mux := proto.NewMux(fn.sess)
			if nd == 1 {
				speaker = rtx.NewSender(env, 1, spec)
				var peers []id.Node
				for p := 2; p <= participants; p++ {
					peers = append(peers, id.Node(p))
				}
				speaker.SetPeers(peers)
			} else {
				fn.recv = rtx.NewReceiver(env, rtx.Config{
					Group: 1, Stream: 1, Spec: spec,
					Mode: rtx.Adaptive, PlayoutDelay: 40 * time.Millisecond,
				})
				mux.Add(fn.recv)
			}
			nodes[nd] = fn
			return mux
		})
	}

	// Session assembles; speaker announces its stream.
	s.At(3*time.Second, func() {
		if got := nodes[1].sess.View().Size(); got != participants {
			t.Errorf("session did not assemble: %d members", got)
		}
		if err := nodes[1].sess.Announce(spec, 8000); err != nil {
			t.Errorf("announce: %v", err)
		}
	})

	// Voice streaming from t=3.5s for 6s of media.
	src := media.NewVoice(spec, 160, 250, time.Second, 1200*time.Millisecond, 9)
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		frame := f
		s.At(3500*time.Millisecond+frame.Capture, func() { speaker.Send(frame) })
	}

	// Chat messages throughout.
	const chats = 8
	for i := 0; i < chats; i++ {
		i := i
		s.At(time.Duration(4000+i*500)*time.Millisecond, func() {
			sender := nodes[id.Node(i%2+1)]
			if err := sender.sess.Send([]byte(fmt.Sprintf("chat-%d", i))); err != nil {
				t.Errorf("chat send: %v", err)
			}
		})
	}

	// Participant 4 crashes mid-call.
	s.At(6*time.Second, func() { s.Crash(4) })

	s.Run(15 * time.Second)

	// Membership converged on the survivors.
	for _, nd := range []id.Node{1, 2, 3, 5} {
		v := nodes[nd].sess.View()
		if v.Size() != participants-1 || v.Contains(4) {
			t.Fatalf("node %s final view = %+v", nd, v)
		}
	}
	// The directory survived and still lists the speaker's stream.
	for _, nd := range []id.Node{2, 3, 5} {
		dir := nodes[nd].sess.Directory()
		if len(dir) != 1 || dir[0].Owner != 1 {
			t.Fatalf("node %s directory = %+v", nd, dir)
		}
	}
	// Media kept flowing to the survivors: a healthy share of the
	// stream arrived (talkspurt silences stretch the 250-packet source
	// past the simulation horizon) and nearly everything that arrived
	// played on time.
	for _, nd := range []id.Node{2, 3, 5} {
		st := nodes[nd].recv.Stats()
		if st.Played < 100 {
			t.Fatalf("node %s played only %d packets: %+v", nd, st.Played, st)
		}
		if float64(st.Played) < 0.9*float64(st.Received) {
			t.Fatalf("node %s played %d of %d received", nd, st.Played, st.Received)
		}
	}
	// Chat delivered exactly once each at every survivor.
	for _, nd := range []id.Node{1, 2, 3, 5} {
		counts := map[string]int{}
		for _, ev := range nodes[nd].events {
			if ev.Kind == MessageReceived {
				counts[string(ev.Payload)]++
			}
		}
		for i := 0; i < chats; i++ {
			key := fmt.Sprintf("chat-%d", i)
			if counts[key] != 1 {
				t.Fatalf("node %s delivered %q %d times", nd, key, counts[key])
			}
		}
	}
}

// TestFullStackDeterminism re-runs a smaller churn scenario twice and
// requires byte-identical event logs — the property that makes every
// experiment in EXPERIMENTS.md reproducible.
func TestFullStackDeterminism(t *testing.T) {
	run := func() []string {
		s := netsim.New(netsim.Config{
			Seed:    202,
			Profile: netsim.LANProfile(2*time.Millisecond, 3*time.Millisecond, 0.05),
		})
		var log []string
		nodes := make(map[id.Node]*Engine)
		for i := 1; i <= 4; i++ {
			nd := id.Node(i)
			contact := id.Node(1)
			if i == 1 {
				contact = id.None
			}
			s.AddNode(nd, func(env proto.Env) proto.Handler {
				eng := New(env, Config{
					Config: core.Config{
						Group:          1,
						Contact:        contact,
						HeartbeatEvery: 40 * time.Millisecond,
						SuspectAfter:   200 * time.Millisecond,
					},
					OnEvent: func(ev Event) {
						log = append(log, fmt.Sprintf("%s:%s:%s:%s",
							nd, ev.Kind, ev.Node, ev.Payload))
					},
				})
				nodes[nd] = eng
				return eng
			})
		}
		for i := 0; i < 10; i++ {
			i := i
			s.At(time.Duration(3000+i*200)*time.Millisecond, func() {
				nodes[1].Send([]byte(fmt.Sprintf("m%d", i)))
			})
		}
		s.At(4*time.Second, func() { s.Crash(3) })
		s.Run(10 * time.Second)
		return log
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("event counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("logs diverge at %d:\n%s\n%s", i, first[i], second[i])
		}
	}
}
