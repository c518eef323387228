package session

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// sessNode bundles an engine with its event log.
type sessNode struct {
	eng    *Engine
	events []Event
}

func (n *sessNode) eventsOf(k EventKind) []Event {
	var out []Event
	for _, ev := range n.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func addSession(s *netsim.Sim, n, contact id.Node) *sessNode {
	sn := &sessNode{}
	s.AddNode(n, func(env proto.Env) proto.Handler {
		sn.eng = New(env, Config{
			Config: core.Config{
				Group:          1,
				Contact:        contact,
				HeartbeatEvery: 40 * time.Millisecond,
				SuspectAfter:   200 * time.Millisecond,
				FlushTimeout:   300 * time.Millisecond,
			},
			OnEvent: func(ev Event) { sn.events = append(sn.events, ev) },
		})
		return sn.eng
	})
	return sn
}

// addAutoSession builds a session routed through the self-organizing
// overlay (fast formation cadence for short simulated runs).
func addAutoSession(s *netsim.Sim, n, contact id.Node) *sessNode {
	sn := &sessNode{}
	s.AddNode(n, func(env proto.Env) proto.Handler {
		sn.eng = New(env, Config{
			Config: core.Config{
				Group:          1,
				Contact:        contact,
				AutoHier:       true,
				HierFanOut:     4,
				HierForm:       hier.FormConfig{ProbeEvery: 100 * time.Millisecond},
				HeartbeatEvery: 40 * time.Millisecond,
				SuspectAfter:   200 * time.Millisecond,
				FlushTimeout:   300 * time.Millisecond,
			},
			OnEvent: func(ev Event) { sn.events = append(sn.events, ev) },
		})
		return sn.eng
	})
	return sn
}

// TestSessionAutoHier routes the session layer through the
// self-organizing overlay: application messages and stream announcements
// must reach every participant exactly once, with the directory
// converging — the overlay's per-origin FIFO is enough for the
// directory's owner-ordered semantics.
func TestSessionAutoHier(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 79})
	nodes := map[id.Node]*sessNode{1: addAutoSession(s, 1, id.None)}
	for n := id.Node(2); n <= 6; n++ {
		nodes[n] = addAutoSession(s, n, 1)
	}
	s.At(5*time.Second, func() {
		if err := nodes[3].eng.Send([]byte("overlay chat")); err != nil {
			t.Errorf("Send: %v", err)
		}
		if err := nodes[4].eng.Announce(media.TelephoneAudio(7, "mic"), 8000); err != nil {
			t.Errorf("Announce: %v", err)
		}
	})
	s.Run(9 * time.Second)

	for n, sn := range nodes {
		if sn.eng.Stack().Hier() == nil {
			t.Fatalf("n%d session has no overlay", n)
		}
		msgs := sn.eventsOf(MessageReceived)
		if len(msgs) != 1 || msgs[0].Node != 3 || string(msgs[0].Payload) != "overlay chat" {
			t.Fatalf("n%d messages = %+v", n, msgs)
		}
		if got := sn.eventsOf(StreamAnnounced); len(got) != 1 || got[0].Stream.Owner != 4 {
			t.Fatalf("n%d announcements = %+v", n, got)
		}
		if a, ok := sn.eng.Lookup(7); !ok || a.Owner != 4 {
			t.Fatalf("n%d directory missing stream 7: %+v", n, a)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if ParticipantJoined.String() != "participant-joined" ||
		StreamWithdrawn.String() != "stream-withdrawn" {
		t.Fatal("EventKind.String broken")
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Fatal("unknown kind")
	}
}

func TestAnnouncementCodec(t *testing.T) {
	a := Announcement{
		Owner:    id.Node(9),
		MeanRate: 8000.5,
		Spec:     media.TelephoneAudio(3, "microphone"),
	}
	got, err := decodeAnnouncement(encodeAnnouncement(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("codec mismatch:\n%+v\n%+v", a, got)
	}
	if _, err := decodeAnnouncement([]byte{1, 2, 3}); err == nil {
		t.Fatal("short announcement decoded")
	}
}

func TestJoinEventsAndMessaging(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 71})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(3*time.Second, func() {
		if err := a.eng.Send([]byte("hello session")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	s.Run(6 * time.Second)

	if a.eng.View().Size() != 2 || b.eng.View().Size() != 2 {
		t.Fatalf("views: a=%+v b=%+v", a.eng.View(), b.eng.View())
	}
	if got := b.eventsOf(ParticipantJoined); len(got) == 0 {
		t.Fatal("no join events at b")
	}
	msgs := b.eventsOf(MessageReceived)
	if len(msgs) != 1 || string(msgs[0].Payload) != "hello session" {
		t.Fatalf("messages at b: %+v", msgs)
	}
	if msgs[0].Node != 1 {
		t.Fatalf("message sender = %s", msgs[0].Node)
	}
	// Sender also receives its own message.
	if len(a.eventsOf(MessageReceived)) != 1 {
		t.Fatal("sender did not self-deliver")
	}
}

func TestStreamDirectoryConverges(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 72})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	c := addSession(s, 3, 1)

	s.At(3*time.Second, func() {
		if err := a.eng.Announce(media.TelephoneAudio(1, "mic-a"), 8000); err != nil {
			t.Errorf("announce: %v", err)
		}
		if err := b.eng.Announce(media.PALVideo(2, "cam-b"), 250000); err != nil {
			t.Errorf("announce: %v", err)
		}
	})
	s.Run(6 * time.Second)

	for name, sn := range map[string]*sessNode{"a": a, "b": b, "c": c} {
		dir := sn.eng.Directory()
		if len(dir) != 2 {
			t.Fatalf("%s directory = %+v", name, dir)
		}
		if dir[0].Spec.ID != 1 || dir[0].Owner != 1 || dir[0].MeanRate != 8000 {
			t.Fatalf("%s entry 0 = %+v", name, dir[0])
		}
		if dir[1].Spec.ID != 2 || dir[1].Owner != 2 {
			t.Fatalf("%s entry 1 = %+v", name, dir[1])
		}
		if got := sn.eventsOf(StreamAnnounced); len(got) != 2 {
			t.Fatalf("%s announce events = %d", name, len(got))
		}
	}
	if _, ok := a.eng.Lookup(2); !ok {
		t.Fatal("Lookup(2) failed")
	}
	if _, ok := a.eng.Lookup(99); ok {
		t.Fatal("Lookup(99) succeeded")
	}
}

func TestWithdraw(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 73})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(3*time.Second, func() {
		a.eng.Announce(media.TelephoneAudio(5, "mic"), 8000)
	})
	s.At(4*time.Second, func() {
		if err := a.eng.Withdraw(5); err != nil {
			t.Errorf("Withdraw: %v", err)
		}
	})
	s.Run(6 * time.Second)
	if len(b.eng.Directory()) != 0 {
		t.Fatalf("directory after withdraw: %+v", b.eng.Directory())
	}
	if got := b.eventsOf(StreamWithdrawn); len(got) != 1 {
		t.Fatalf("withdraw events = %d", len(got))
	}
}

func TestWithdrawErrors(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 74})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(3*time.Second, func() {
		b.eng.Announce(media.TelephoneAudio(7, "mic-b"), 8000)
	})
	var unknownErr, notOwnerErr error
	s.At(4*time.Second, func() {
		unknownErr = a.eng.Withdraw(99)
		notOwnerErr = a.eng.Withdraw(7)
	})
	s.Run(5 * time.Second)
	if !errors.Is(unknownErr, ErrUnknownStream) {
		t.Fatalf("unknown err = %v", unknownErr)
	}
	if !errors.Is(notOwnerErr, ErrNotOwner) {
		t.Fatalf("not-owner err = %v", notOwnerErr)
	}
}

func TestCrashWithdrawsStreams(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 75})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(3*time.Second, func() {
		b.eng.Announce(media.PALVideo(4, "cam-b"), 250000)
	})
	s.At(4*time.Second, func() { s.Crash(2) })
	s.Run(10 * time.Second)

	if len(a.eng.Directory()) != 0 {
		t.Fatalf("dead participant's streams linger: %+v", a.eng.Directory())
	}
	var sawLeft, sawWithdrawn bool
	for _, ev := range a.events {
		if ev.Kind == ParticipantLeft && ev.Node == 2 {
			sawLeft = true
		}
		if ev.Kind == StreamWithdrawn && ev.Stream.Spec.ID == 4 {
			sawWithdrawn = true
		}
	}
	if !sawLeft || !sawWithdrawn {
		t.Fatalf("events missing: left=%t withdrawn=%t", sawLeft, sawWithdrawn)
	}
}

// TestDepartureWithdrawsInStreamOrder: when an owner of several streams
// departs, the application sees one StreamWithdrawn per stream, in
// stream-ID order, whatever order the directory map yields.
func TestDepartureWithdrawsInStreamOrder(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 75})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	ids := []id.Stream{9, 3, 14, 7, 1, 12, 5, 2, 11, 8}
	s.At(3*time.Second, func() {
		for _, sid := range ids {
			if err := b.eng.Announce(media.PALVideo(sid, "cam"), 250000); err != nil {
				t.Errorf("announce %d: %v", sid, err)
			}
		}
	})
	s.At(4*time.Second, func() { s.Crash(2) })
	s.Run(10 * time.Second)

	var got []id.Stream
	for _, ev := range a.eventsOf(StreamWithdrawn) {
		got = append(got, ev.Stream.Spec.ID)
	}
	want := slices.Clone(ids)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("StreamWithdrawn events for streams %v, want %v", got, want)
	}
}

func TestSpoofedAnnouncementIgnored(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 76})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(3*time.Second, func() {
		// b announces a stream claiming a's ownership: rejected.
		body := encodeAnnouncement(Announcement{Owner: 1, Spec: media.TelephoneAudio(9, "fake")})
		buf := append([]byte{opAnnounce}, body...)
		b.eng.Stack().Multicast(buf)
	})
	s.Run(5 * time.Second)
	if len(a.eng.Directory()) != 0 {
		t.Fatalf("spoofed announcement accepted: %+v", a.eng.Directory())
	}
}

func TestDirectoryTransferredToLateJoiner(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 77})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(2*time.Second, func() {
		if err := a.eng.Announce(media.TelephoneAudio(3, "early-mic"), 8000); err != nil {
			t.Errorf("announce: %v", err)
		}
	})
	// Node 3 joins well after the announcement (a gate keeps its engine
	// dormant until t=4s); the state transfer must hand it the directory
	// it missed.
	c := &sessNode{}
	gate := &gatedHandler{}
	s.AddNode(3, func(env proto.Env) proto.Handler {
		c.eng = New(env, Config{
			Config: core.Config{
				Group:          1,
				Contact:        1,
				HeartbeatEvery: 40 * time.Millisecond,
				SuspectAfter:   200 * time.Millisecond,
				FlushTimeout:   300 * time.Millisecond,
			},
			OnEvent: func(ev Event) { c.events = append(c.events, ev) },
		})
		gate.inner = c.eng
		return gate
	})
	s.At(4*time.Second, func() { gate.open = true })
	s.Run(8 * time.Second)

	if c.eng.View().Size() != 3 {
		t.Fatalf("late joiner view = %+v", c.eng.View())
	}
	dir := c.eng.Directory()
	if len(dir) != 1 || dir[0].Spec.Name != "early-mic" || dir[0].Owner != 1 {
		t.Fatalf("late joiner directory = %+v", dir)
	}
	if got := c.eventsOf(StreamAnnounced); len(got) != 1 {
		t.Fatalf("late joiner announce events = %d", len(got))
	}
	_ = b
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 78})
	a := addSession(s, 1, id.None)
	s.At(time.Second, func() {
		a.eng.Announce(media.TelephoneAudio(1, "m1"), 1000)
		a.eng.Announce(media.PALVideo(2, "v1"), 2000)
	})
	s.Run(2 * time.Second)
	if len(a.eng.Directory()) != 2 {
		t.Fatalf("precondition: %+v", a.eng.Directory())
	}
	snap := a.eng.snapshotDirectory()
	fresh := &Engine{directory: make(map[id.Stream]Announcement), stack: a.eng.stack}
	fresh.installDirectory(a.eng.View(), snap)
	if len(fresh.directory) != 2 {
		t.Fatalf("snapshot round trip lost entries: %+v", fresh.directory)
	}
	// Corrupt snapshots must not panic or install garbage.
	fresh2 := &Engine{directory: make(map[id.Stream]Announcement), stack: a.eng.stack}
	fresh2.installDirectory(a.eng.View(), snap[:5])
	fresh2.installDirectory(a.eng.View(), []byte{1})
}

// gatedHandler drops all events until opened, delaying a node's protocol
// participation without delaying its construction.
type gatedHandler struct {
	inner proto.Handler
	open  bool
}

func (g *gatedHandler) OnMessage(from id.Node, msg *wire.Message) {
	if g.open {
		g.inner.OnMessage(from, msg)
	}
}

func (g *gatedHandler) OnTick(now time.Time) {
	if g.open {
		g.inner.OnTick(now)
	}
}

// TestMemberSlowWithFlowWindowOnly: a flow window alone turns on slow
// tracking, and its flag transitions surface as MemberSlow events.
func TestMemberSlowWithFlowWindowOnly(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 86})
	nodes := make(map[id.Node]*sessNode)
	for n := id.Node(1); n <= 3; n++ {
		sn := &sessNode{}
		nodes[n] = sn
		contact := id.Node(1)
		if n == 1 {
			contact = id.None
		}
		s.AddNode(n, func(env proto.Env) proto.Handler {
			sn.eng = New(env, Config{
				Config: core.Config{
					Group: 1, Contact: contact, FlowWindow: 4,
					SuspectAfter: 10 * time.Second, // the stall below must not evict
				},
				OnEvent: func(ev Event) { sn.events = append(sn.events, ev) },
			})
			return sn.eng
		})
	}
	s.At(2*time.Second, func() { s.Stall(3) })
	for i := 0; i < 20; i++ {
		s.At(2100*time.Millisecond+time.Duration(i)*50*time.Millisecond, func() { nodes[1].eng.Send([]byte("x")) })
	}
	s.Run(4 * time.Second)
	slow := nodes[1].eventsOf(MemberSlow)
	if len(slow) == 0 || slow[0].Node != 3 || !slow[0].Slow || slow[0].Lag < 4 {
		t.Fatalf("MemberSlow events %+v, want n3 flagged at the window's lag", slow)
	}
}
