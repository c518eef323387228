package scalamedia

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"scalamedia/internal/transport"
)

// TestSendPathAllocs pins what the public API costs on the caller's
// goroutine. A call runs as an activation under the node's lock with a
// closure that stays on the stack, so a control call allocates nothing
// and a single-node Send allocates only what the engines keep: the
// message, its body and the local delivery's share.
func TestSendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	fab := transport.NewFabric()
	t.Cleanup(fab.Close)
	ep, err := fab.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(Config{Self: 1, Endpoint: ep, Group: 1, Ordering: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if !n.WaitViewSize(1, 5*time.Second) {
		t.Fatal("single-node view never installed")
	}
	payload := make([]byte, 64)
	for i := 0; i < 512; i++ { // warm scratch buffers and history maps
		if err := n.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(1000, func() { _ = n.Send(payload) }); a > 3 {
		t.Errorf("Node.Send allocates %.2f/op, want <= 3", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _ = n.Evicted() }); a != 0 {
		t.Errorf("Node.Evicted allocates %.2f/op, want 0", a)
	}
}

// TestConcurrentSendsAndClose: eight goroutines send numbered messages
// through the three nodes of a group while a ninth closes one node part
// way through (once the victim's first goroutine is half done; that one
// waits for the close, the others race it). Every call returns nil or
// ErrClosed without hanging, and each surviving member delivers every
// goroutine's messages in the order that goroutine sent them — all of
// them for the goroutines on surviving nodes.
func TestConcurrentSendsAndClose(t *testing.T) {
	const senders, perSender, victim = 8, 500, NodeID(3)
	fab := transport.NewFabric(transport.WithSeed(7))
	t.Cleanup(fab.Close)

	// got[node][goroutine] lists the sequence numbers delivered there.
	var mu sync.Mutex
	got := map[NodeID][][]int{}
	nodes := make([]*Node, 3)
	for i := range nodes {
		self := NodeID(i + 1)
		got[self] = make([][]int, senders)
		ep, err := fab.Attach(self)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: self, Endpoint: ep, Group: 1, Ordering: FIFO,
			Tick:           5 * time.Millisecond,
			HeartbeatEvery: 50 * time.Millisecond,
			SuspectAfter:   400 * time.Millisecond,
			OnEvent: func(ev Event) {
				if ev.Kind != MessageReceived {
					return
				}
				g, seq := int(ev.Payload[0]), int(binary.BigEndian.Uint16(ev.Payload[1:]))
				mu.Lock()
				got[self][g] = append(got[self][g], seq)
				mu.Unlock()
			},
		}
		if i > 0 {
			cfg.Contact = 1
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
		if !n.WaitViewSize(i+1, 10*time.Second) {
			t.Fatalf("node %d never joined", self)
		}
	}
	for _, n := range nodes {
		if !n.WaitViewSize(3, 10*time.Second) {
			t.Fatalf("node %d never saw the full view", n.ID())
		}
	}

	half, closed := make(chan struct{}), make(chan struct{})
	errs := make(chan error, senders*perSender)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := nodes[g%len(nodes)]
			for seq := 0; seq < perSender; seq++ {
				if g == int(victim)-1 && seq == perSender/2 {
					close(half)
					<-closed
				}
				var msg [3]byte
				msg[0] = byte(g)
				binary.BigEndian.PutUint16(msg[1:], uint16(seq))
				if err := n.Send(msg[:]); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-half
		nodes[victim-1].Close()
		close(closed)
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("a Send or Close hung")
	}
	close(errs)
	if len(errs) < perSender/2 {
		t.Fatalf("%d sends failed, want at least the %d sent after Close", len(errs), perSender/2)
	}
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Send returned %v, want nil or ErrClosed", err)
		}
	}

	survivors := []NodeID{1, 2}
	complete := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, self := range survivors {
			for g := 0; g < senders; g++ {
				if NodeID(g%len(nodes)+1) != victim && len(got[self][g]) < perSender {
					return false
				}
			}
		}
		return true
	}
	waitFor(t, "every surviving sender's messages at every survivor", complete)
	mu.Lock()
	defer mu.Unlock()
	for _, self := range survivors {
		for g := 0; g < senders; g++ {
			for i, seq := range got[self][g] {
				if i > 0 && seq <= got[self][g][i-1] {
					t.Fatalf("node %d: goroutine %d's message %d delivered after %d",
						self, g, seq, got[self][g][i-1])
				}
			}
			if NodeID(g%len(nodes)+1) != victim && len(got[self][g]) != perSender {
				t.Fatalf("node %d: goroutine %d delivered %d, want %d",
					self, g, len(got[self][g]), perSender)
			}
		}
	}
}
