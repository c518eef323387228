package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// newUDPPair returns two loopback endpoints that know each other.
func newUDPPair(t *testing.T) (a, b *UDPEndpoint) {
	t.Helper()
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	b, err = ListenUDP(2, "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatalf("listen b: %v", err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestUDPRoundTrip(t *testing.T) {
	a, b := newUDPPair(t)
	if err := a.Send(2, msg(wire.KindData, 11)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if in.From != 1 || in.Msg.Seq != 11 {
		t.Fatalf("got from=%s seq=%d", in.From, in.Msg.Seq)
	}
	// And the reverse direction.
	if err := b.Send(1, msg(wire.KindHeartbeat, 1)); err != nil {
		t.Fatal(err)
	}
	back := recvOne(t, a)
	if back.Msg.Kind != wire.KindHeartbeat {
		t.Fatalf("reverse kind = %s", back.Msg.Kind)
	}
}

func TestUDPSelf(t *testing.T) {
	a, _ := newUDPPair(t)
	if a.Self() != 1 {
		t.Fatalf("Self() = %s", a.Self())
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a, _ := newUDPPair(t)
	if err := a.Send(42, msg(wire.KindData, 1)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestUDPSendAfterClose(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, msg(wire.KindData, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Close must be idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPBadPeerAddress(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.AddPeer(2, "not an address"); err == nil {
		t.Fatal("AddPeer accepted garbage address")
	}
}

func TestUDPOversizedMessage(t *testing.T) {
	a, _ := newUDPPair(t)
	big := &wire.Message{Kind: wire.KindData, Body: make([]byte, maxDatagram)}
	if err := a.Send(2, big); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestUDPIgnoresMalformedDatagrams(t *testing.T) {
	a, b := newUDPPair(t)
	// Throw raw garbage at b's socket; it must survive and keep working.
	// Loopback UDP from one source socket preserves ordering, so the
	// garbage reaches b's read loop before the valid datagram — no sleep
	// needed, and recvOne below bounds the wait either way.
	if _, err := a.conn.WriteToUDP([]byte{1, 2, 3}, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, msg(wire.KindData, 77)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if in.Msg.Seq != 77 {
		t.Fatalf("seq = %d, want 77", in.Msg.Seq)
	}
}

func TestUDPRecvClosedAfterClose(t *testing.T) {
	a, err := ListenUDP(9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-a.Recv():
		if ok {
			t.Fatal("unexpected message on closed endpoint")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv() not closed after Close()")
	}
}

func TestUDPManyMessages(t *testing.T) {
	a, b := newUDPPair(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(2, msg(wire.KindData, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(3 * time.Second)
	for got < n {
		select {
		case <-b.Recv():
			got++
		case <-deadline:
			// Loopback UDP can drop under buffer pressure, but
			// losing most of 100 small datagrams means a bug.
			if got < n/2 {
				t.Fatalf("received only %d of %d", got, n)
			}
			return
		}
	}
}

// TestUDPReturnAddressLearning pins the tentpole transport behaviour: an
// endpoint with no peer entry for a sender learns the sender's return
// address from its first datagram and can reply without configuration.
func TestUDPReturnAddressLearning(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenUDP(2, "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	reg := stats.NewRegistry()
	b.SetMetrics(reg)

	// Only a is configured; b has never heard of node 1.
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if b.CanReach(1) {
		t.Fatal("b claims reachability before hearing from node 1")
	}
	if err := b.Send(1, msg(wire.KindData, 1)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("pre-learning send err = %v, want ErrUnknownPeer", err)
	}

	if err := a.Send(2, msg(wire.KindData, 7)); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, b); in.From != 1 || in.Msg.Seq != 7 {
		t.Fatalf("b got from=%s seq=%d", in.From, in.Msg.Seq)
	}
	if !b.CanReach(1) {
		t.Fatal("b did not learn node 1's return address")
	}
	if err := b.Send(1, msg(wire.KindHeartbeat, 2)); err != nil {
		t.Fatalf("post-learning send: %v", err)
	}
	if back := recvOne(t, a); back.From != 2 || back.Msg.Kind != wire.KindHeartbeat {
		t.Fatalf("a got from=%s kind=%s", back.From, back.Msg.Kind)
	}
	if got := reg.Counter("transport.addr_learned").Value(); got != 1 {
		t.Fatalf("transport.addr_learned = %d, want 1", got)
	}
}

// TestUDPStaticPeerNotDisplaced pins the precedence rule: a statically
// configured peer entry survives datagrams arriving from a different
// source address for the same node ID (anti-spoofing: configuration
// outranks learning).
func TestUDPStaticPeerNotDisplaced(t *testing.T) {
	a, b := newUDPPair(t)
	// An impostor socket claims to be node 1 from a different port.
	imp, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { imp.Close() })
	if err := imp.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	staticAP := (*b.peers.Load())[1].ap
	if err := imp.Send(2, msg(wire.KindData, 3)); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, b); in.Msg.Seq != 3 {
		t.Fatalf("seq = %d", in.Msg.Seq)
	}
	entry := (*b.peers.Load())[1]
	if !entry.static || entry.ap != staticAP {
		t.Fatalf("static peer displaced: %+v (was %v)", entry, staticAP)
	}
	// Replies still go to the configured address.
	if err := b.Send(1, msg(wire.KindData, 4)); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, a); in.Msg.Seq != 4 {
		t.Fatalf("reply seq = %d, want 4 at the static peer", in.Msg.Seq)
	}
}

// TestUDPLearnPeer covers the LearnPeer API the session layer drives
// when addresses arrive in view bodies: learned entries work, refresh on
// change, and are overridden by a later static AddPeer.
func TestUDPLearnPeer(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenUDP(2, "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	if err := b.AddPeer(1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	if err := a.LearnPeer(2, "not an address"); err == nil {
		t.Fatal("LearnPeer accepted garbage")
	}
	if err := a.LearnPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, msg(wire.KindData, 5)); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, b); in.Msg.Seq != 5 {
		t.Fatalf("seq = %d", in.Msg.Seq)
	}
	if entry := (*a.peers.Load())[2]; entry.static {
		t.Fatalf("LearnPeer produced a static entry: %+v", entry)
	}
	// A later static AddPeer takes over the slot.
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if entry := (*a.peers.Load())[2]; !entry.static {
		t.Fatalf("AddPeer did not mark the entry static: %+v", entry)
	}
	// And a learned update can no longer displace it.
	if err := a.LearnPeer(2, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if entry := (*a.peers.Load())[2]; entry.ap.Port() == 1 {
		t.Fatal("learned address displaced the static entry")
	}
}

// fillReceivePipeline attaches b's Recv queue as its consumer and sends
// total small datagrams from a to b while nobody reads the queue, in
// chunks, waiting after each chunk until the queue has absorbed all it
// can. Only what exceeds the queue is ever left to the reader's batch in
// hand and the kernel — a few dozen KiB, inside even a default socket
// buffer.
func fillReceivePipeline(t *testing.T, a, b *UDPEndpoint, total int) {
	t.Helper()
	b.Recv()
	m := &wire.Message{Kind: wire.KindData, Group: 1, Sender: 1, Body: make([]byte, 32)}
	for sent := 0; sent < total; {
		for i := 0; i < DefaultBatch && sent < total; i++ {
			m.Seq = uint64(sent)
			if err := a.SendBatch(2, m); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		want := min(sent, cap(b.recv))
		for deadline := time.Now().Add(5 * time.Second); len(b.recv) < want; {
			if time.Now().After(deadline) {
				t.Fatalf("receiver absorbed %d of %d datagrams sent", len(b.recv), sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestUDPReceiveBackpressure pins the Recv queue's single drop point:
// with nobody reading Recv(), more datagrams arrive than the queue and
// the reader's batch in hand hold; the reader waits instead of dropping,
// the excess sits in the socket buffer, and a consumer that shows up late
// still receives every one of them.
func TestUDPReceiveBackpressure(t *testing.T) {
	a, b := newUDPPair(t)
	reg := stats.NewRegistry()
	b.SetMetrics(reg)
	total := cap(b.recv) + b.batch + 64
	fillReceivePipeline(t, a, b, total)
	waitCounter(t, reg, "transport.rx_stalls", 1) // the reader waits on the full queue

	seen := make([]bool, total)
	deadline := time.After(10 * time.Second)
	for got := 0; got < total; got++ {
		select {
		case in := <-b.Recv():
			if seen[in.Msg.Seq] {
				t.Fatalf("datagram %d delivered twice", in.Msg.Seq)
			}
			seen[in.Msg.Seq] = true
		case <-deadline:
			t.Fatalf("received %d of %d datagrams; rx_dropped=%d queue_drops=%d",
				got, total, reg.Counter("transport.rx_dropped").Value(), reg.Counter("transport.queue_drops").Value())
		}
	}
	snap := reg.Snapshot()
	if d, q := snap.Counters["transport.rx_dropped"], snap.Counters["transport.queue_drops"]; d != 0 || q != 0 {
		t.Fatalf("rx_dropped = %d, queue_drops = %d, want 0 and 0", d, q)
	}
	if snap.Counters["transport.rx_stalls"] == 0 {
		t.Fatal("rx_stalls = 0: the queue was full, the reader's waits must be counted")
	}
}

// TestUDPReceiverBackpressure is the push twin of
// TestUDPReceiveBackpressure: a receiver that blocks for the whole send
// holds the reader, the datagrams wait in the socket buffer instead of
// being dropped in user space, and once it unblocks every one reaches it.
func TestUDPReceiverBackpressure(t *testing.T) {
	a, b := newUDPPair(t)
	reg := stats.NewRegistry()
	b.SetMetrics(reg)
	total := b.batch + 64
	entered, release := make(chan struct{}), make(chan struct{})
	seqs := make(chan uint64, total)
	var once sync.Once
	if !b.SetReceiver(func(ins []Inbound) {
		once.Do(func() { close(entered) })
		<-release
		for _, in := range ins {
			seqs <- in.Msg.Seq
		}
	}) {
		t.Fatal("SetReceiver refused on a fresh endpoint")
	}
	m := &wire.Message{Kind: wire.KindData, Group: 1, Sender: 1, Body: make([]byte, 32)}
	send := func(from, to int) {
		for i := from; i < to; i++ {
			m.Seq = uint64(i)
			if err := a.SendBatch(2, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 1)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the receiver was never called")
	}
	for sent := 1; sent < total; sent += DefaultBatch {
		send(sent, min(sent+DefaultBatch, total))
	}
	close(release)

	seen := make([]bool, total)
	deadline := time.After(10 * time.Second)
	for got := 0; got < total; got++ {
		select {
		case seq := <-seqs:
			if seen[seq] {
				t.Fatalf("datagram %d delivered twice", seq)
			}
			seen[seq] = true
		case <-deadline:
			t.Fatalf("received %d of %d datagrams", got, total)
		}
	}
	snap := reg.Snapshot()
	if d, q := snap.Counters["transport.rx_dropped"], snap.Counters["transport.queue_drops"]; d != 0 || q != 0 {
		t.Fatalf("rx_dropped = %d, queue_drops = %d, want 0 and 0", d, q)
	}
}

// TestUDPOneConsumer: an endpoint has one consumer. SetReceiver refuses
// once Recv has attached, once a receiver has, and after Close.
func TestUDPOneConsumer(t *testing.T) {
	a, b := newUDPPair(t)
	a.Recv()
	if a.SetReceiver(func([]Inbound) {}) {
		t.Fatal("SetReceiver attached after Recv")
	}
	if !b.SetReceiver(func([]Inbound) {}) {
		t.Fatal("SetReceiver refused on a fresh endpoint")
	}
	if b.SetReceiver(func([]Inbound) {}) {
		t.Fatal("a second SetReceiver attached")
	}
	c, err := ListenUDP(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.SetReceiver(func([]Inbound) {}) {
		t.Fatal("SetReceiver attached after Close")
	}
	if _, ok := <-c.Recv(); ok {
		t.Fatal("Recv of a closed endpoint is open")
	}
}

// TestUDPCloseUnderBackpressure closes an endpoint whose reader is
// waiting on a full Recv queue that nobody drains: Close must release it
// and return, counting what it discards.
func TestUDPCloseUnderBackpressure(t *testing.T) {
	a, b := newUDPPair(t)
	reg := stats.NewRegistry()
	b.SetMetrics(reg)
	fillReceivePipeline(t, a, b, cap(b.recv)+b.batch+64)
	waitCounter(t, reg, "transport.rx_stalls", 1) // the reader is waiting

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s with the receive queue full")
	}
	snap := reg.Snapshot()
	if snap.Counters["transport.rx_dropped"]+snap.Counters["transport.queue_drops"] == 0 {
		t.Fatal("Close discarded waiting datagrams without counting them")
	}
}
