package session

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scalamedia/internal/core"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

// TestSessionBulkPublish pushes a bulk object through the full session
// stack: manifest on the ordered channel, coded symbols scattered and
// relayed, ObjectProgress along the way and ObjectReceived with the
// bytes at the end.
func TestSessionBulkPublish(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 81})
	nodes := map[id.Node]*sessNode{1: addSession(s, 1, id.None)}
	for n := id.Node(2); n <= 4; n++ {
		nodes[n] = addSession(s, n, 1)
	}
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(81)).Read(data)
	s.At(3*time.Second, func() {
		if err := nodes[1].eng.Publish(42, data); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	s.Run(8 * time.Second)

	for n, sn := range nodes {
		got, ok := sn.eng.Fetch(42)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n%d Fetch(42): ok=%t len=%d", n, ok, len(got))
		}
		if n == 1 {
			continue // the publisher holds the object without events
		}
		recv := sn.eventsOf(ObjectReceived)
		if len(recv) != 1 || recv[0].Object != 42 || recv[0].Node != 1 ||
			!bytes.Equal(recv[0].Payload, data) {
			t.Fatalf("n%d ObjectReceived = %+v", n, recv)
		}
		prog := sn.eventsOf(ObjectProgress)
		if len(prog) == 0 {
			t.Fatalf("n%d saw no ObjectProgress events", n)
		}
		last := prog[len(prog)-1]
		if last.Done != last.Total || last.Total != 3 { // 40KB / (16·1024) → 3 generations
			t.Fatalf("n%d final progress = %d/%d", n, last.Done, last.Total)
		}
	}
}

// TestSessionBulkPublishAutoHier publishes through the self-organizing
// overlay: the relayed fan must follow the formed tree (own cluster plus
// remote coordinators) and still complete everywhere.
func TestSessionBulkPublishAutoHier(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 82})
	nodes := map[id.Node]*sessNode{1: addAutoSession(s, 1, id.None)}
	for n := id.Node(2); n <= 6; n++ {
		nodes[n] = addAutoSession(s, n, 1)
	}
	data := make([]byte, 30_000)
	rand.New(rand.NewSource(82)).Read(data)
	s.At(5*time.Second, func() {
		if err := nodes[2].eng.Publish(7, data); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	s.Run(12 * time.Second)

	for n, sn := range nodes {
		got, ok := sn.eng.Fetch(7)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n%d Fetch(7): ok=%t len=%d", n, ok, len(got))
		}
	}
}

// TestStateTransferOffMemberChannel pins the join-time state-transfer
// cost: a large directory must reach a late joiner as a bulk object, so
// the member-channel JoinAck carries only the fixed-size manifest and no
// longer scales with session history.
func TestStateTransferOffMemberChannel(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 83})
	a := addSession(s, 1, id.None)
	s.At(2*time.Second, func() {
		// ~8KB of directory: far past the inline threshold.
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("stream-%03d-%s", i, strings.Repeat("x", 80))
			if err := a.eng.Announce(media.TelephoneAudio(id.Stream(i+1), name), 8000); err != nil {
				t.Errorf("announce %d: %v", i, err)
			}
		}
	})
	c := &sessNode{}
	gate := &gatedHandler{}
	s.AddNode(2, func(env proto.Env) proto.Handler {
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
	s.Run(10 * time.Second)

	if c.eng.View().Size() != 2 {
		t.Fatalf("late joiner view = %+v", c.eng.View())
	}
	if got := len(c.eng.Directory()); got != 60 {
		t.Fatalf("late joiner directory = %d entries, want 60", got)
	}
	// The pinned bound: the snapshot frame handed to the membership layer
	// is a tagged manifest two orders of magnitude smaller than the
	// directory it describes ...
	inline := a.eng.snapshotDirectory()
	framed := a.eng.snapshotState()
	if framed[0] != stateTagManifest {
		t.Fatalf("snapshot frame tag = %d, want manifest", framed[0])
	}
	if len(framed) > 256 || len(inline) < 4096 {
		t.Fatalf("snapshot frame %dB for %dB directory: not constant-size", len(framed), len(inline))
	}
	// ... and the JoinAck traffic that actually crossed the member channel
	// stays under one inline snapshot, retries included.
	ack := s.Stats().BytesByKind[wire.KindJoinAck]
	if ack >= uint64(len(inline)) {
		t.Fatalf("JoinAck bytes = %d, want < inline directory %d", ack, len(inline))
	}
}

// TestStateTransferInlineSmall keeps the cheap path cheap: a small
// directory still rides inline in the JoinAck, no bulk object minted.
func TestStateTransferInlineSmall(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 84})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(2*time.Second, func() {
		a.eng.Announce(media.TelephoneAudio(3, "small-mic"), 8000)
	})
	s.Run(4 * time.Second)
	framed := a.eng.snapshotState()
	if framed[0] != stateTagInline {
		t.Fatalf("small snapshot tag = %d, want inline", framed[0])
	}
	_ = b
}

// TestPublishRefusedSendsNoSymbols pins manifest-first publishing: when the
// ordered channel refuses the manifest (the flow window is full behind a
// stalled receiver), Publish must fail without having scattered a single
// symbol — receivers that never hear of the object have no use for them.
func TestPublishRefusedSendsNoSymbols(t *testing.T) {
	const window = 2
	s := netsim.New(netsim.Config{Seed: 85})
	nodes := make(map[id.Node]*sessNode)
	for n := id.Node(1); n <= 3; n++ {
		n := n
		sn := &sessNode{}
		nodes[n] = sn
		contact := id.Node(1)
		if n == 1 {
			contact = id.None
		}
		s.AddNode(n, func(env proto.Env) proto.Handler {
			sn.eng = New(env, Config{
				Config: core.Config{
					Group:          1,
					Contact:        contact,
					FlowWindow:     window,
					HeartbeatEvery: 40 * time.Millisecond,
					SuspectAfter:   10 * time.Second,
					// the stall below must not evict
					FlushTimeout: 300 * time.Millisecond,
				},
			})
			return sn.eng
		})
	}
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(85)).Read(data)
	var publishErr error
	s.At(3*time.Second, func() { s.Stall(2) })
	s.At(3100*time.Millisecond, func() {
		if got := nodes[1].eng.View().Size(); got != 3 {
			t.Errorf("view size = %d before the publish, want 3", got)
		}
		for i := 0; i < window; i++ {
			if err := nodes[1].eng.Send([]byte("fill")); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		publishErr = nodes[1].eng.Publish(42, data)
	})
	s.Run(4 * time.Second)
	if !errors.Is(publishErr, rmcast.ErrBackpressure) {
		t.Fatalf("Publish behind a full flow window: err = %v, want ErrBackpressure", publishErr)
	}
	if n := s.Stats().SentByKind[wire.KindBulkSym]; n != 0 {
		t.Fatalf("%d bulk symbols sent for an object whose manifest was refused", n)
	}
}
