package transport

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// parityMessages is the message set the batch/fallback parity test pushes
// through both UDP paths: every shape the data plane produces — tiny
// control beacons, piggybacked data, batched NACK ranges, a large media
// frame near the fragmentation threshold.
func parityMessages() []*wire.Message {
	big := make([]byte, 32*1024)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []*wire.Message{
		{Kind: wire.KindHeartbeat, Group: 1, Sender: 1, Aux: 42},
		{Kind: wire.KindData, Group: 1, View: 3, Sender: 1, Seq: 7,
			Flags: wire.FlagCausal, TS: []uint32{1, 2, 3}, Body: []byte("payload")},
		{Kind: wire.KindData, Group: 1, View: 3, Sender: 1, Seq: 8,
			Flags: wire.FlagPiggyAck, Body: []byte("acked"),
			Acks: []wire.AckEntry{{Sender: 2, Seq: 5}, {Sender: 3, Seq: 9}}},
		{Kind: wire.KindNackBatch, Group: 1, Sender: 1,
			Body: wire.AppendNackRanges(nil, []wire.NackRange{{Sender: 2, From: 3, To: 9}})},
		{Kind: wire.KindMedia, Group: 1, Sender: 1, Stream: 4, MediaTS: 90000,
			Flags: wire.FlagMarker, Seq: 11, Body: big},
		{Kind: wire.KindStable, Group: 1, Sender: 1,
			Body: wire.AppendAckVector(nil, []wire.AckEntry{{Sender: 1, Seq: 99}})},
	}
}

// runPathDeliveries sends the parity set from node 1 to node 2 through
// endpoints built with opts, and returns the sorted wire encodings of
// what node 2 delivered.
func runPathDeliveries(t *testing.T, opts ...UDPOption) []string {
	t.Helper()
	a, err := ListenUDP(1, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(2, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	msgs := parityMessages()
	for _, m := range msgs {
		if err := a.SendBatch(2, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	deadline := time.After(5 * time.Second)
	for len(got) < len(msgs) {
		select {
		case in := <-b.Recv():
			got = append(got, string(in.Msg.Marshal()))
			wire.PutMessage(in.Msg)
		case <-deadline:
			t.Fatalf("received %d of %d messages", len(got), len(msgs))
		}
	}
	sort.Strings(got)
	return got
}

// TestBatchFallbackParity pins the core batching contract: the Linux
// recvmmsg/sendmmsg path and the portable single-datagram path carry
// identical wire bytes and deliver identical message sets. On non-Linux
// platforms both columns run the portable path and the test degenerates
// to a self-check.
func TestBatchFallbackParity(t *testing.T) {
	// The expected deliveries are the sent messages themselves: stamp
	// From as the endpoint does and encode.
	var want []string
	for _, m := range parityMessages() {
		m.From = 1
		want = append(want, string(m.Marshal()))
	}
	sort.Strings(want)

	paths := []struct {
		name string
		opts []UDPOption
	}{
		{"batch", []UDPOption{WithBatchSize(DefaultBatch)}},
		{"fallback", []UDPOption{WithBatchSize(1)}},
	}
	for _, p := range paths {
		p := p
		t.Run(p.name, func(t *testing.T) {
			got := runPathDeliveries(t, p.opts...)
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d differs from sent wire bytes\n got: %x\nwant: %x",
						i, got[i][:min(64, len(got[i]))], want[i][:min(64, len(want[i]))])
				}
			}
		})
	}
}

// TestBatchPathSelected documents which path this platform runs: Linux
// endpoints must use batch I/O by default, and WithBatchSize(1) must
// select the portable path everywhere.
func TestBatchPathSelected(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f, err := ListenUDP(2, "127.0.0.1:0", WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.BatchIO() {
		t.Fatal("WithBatchSize(1) did not select the portable path")
	}
	t.Logf("default path batchIO=%v", a.BatchIO())
}

// TestUDPOrderedDecode: the goroutine that reads the socket decodes
// and hands on each batch in arrival order, so a default endpoint
// delivers one sender's datagrams in the order sent (loopback UDP from
// one source socket preserves ordering), through the receiver hook and
// through Recv alike.
func TestUDPOrderedDecode(t *testing.T) {
	for _, push := range []bool{true, false} {
		name := "recv"
		if push {
			name = "receiver"
		}
		t.Run(name, func(t *testing.T) {
			a, b := newUDPPair(t)
			const n = 200
			in := b.Recv
			if push {
				ch := make(chan Inbound, n)
				if !b.SetReceiver(func(ins []Inbound) {
					for _, in := range ins {
						ch <- in
					}
				}) {
					t.Fatal("SetReceiver refused on a fresh endpoint")
				}
				in = func() <-chan Inbound { return ch }
			}
			for i := 0; i < n; i++ {
				if err := a.SendBatch(2, &wire.Message{Kind: wire.KindData, Seq: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			// Only ordering is under test: loopback can drop under load
			// (a socket-buffer overflow skips a mid-stream run of
			// sequences), so the assertion is that sequence numbers never
			// go backwards, plus a floor on how many arrive at all.
			got, last := 0, -1
			deadline := time.After(5 * time.Second)
			for got < n && last < n-1 {
				select {
				case in := <-in():
					if int(in.Msg.Seq) <= last {
						t.Fatalf("out of order: got seq %d after %d", in.Msg.Seq, last)
					}
					last = int(in.Msg.Seq)
					got++
				case <-deadline:
					if got < n/2 {
						t.Fatalf("received only %d of %d", got, n)
					}
					return
				}
			}
		})
	}
}

// TestUDPSendBatchErrors covers the queue path's local error cases: the
// pooled buffer must be released and the queue untouched on every one.
func TestUDPSendBatchErrors(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch(42, &wire.Message{Kind: wire.KindData}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("unknown peer err = %v", err)
	}
	if err := a.AddPeer(2, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	big := &wire.Message{Kind: wire.KindData, Body: make([]byte, maxDatagram)}
	if err := a.SendBatch(2, big); err == nil {
		t.Fatal("oversized message accepted by SendBatch")
	}
	// Queue something, then close without flushing: Close must drain and
	// release the queue.
	if err := a.SendBatch(2, &wire.Message{Kind: wire.KindData, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch(2, &wire.Message{Kind: wire.KindData}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after close = %v, want ErrClosed", err)
	}
	if err := a.Flush(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close = %v", err)
	}
}

// TestUDPDecodeErrorCounted sends garbage datagrams and checks the
// reader counts them and keeps working.
func TestUDPDecodeErrorCounted(t *testing.T) {
	a, b := newUDPPair(t)
	reg := stats.NewRegistry()
	b.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		if _, err := a.conn.WriteToUDP([]byte{0xff, 0xee, byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(2, msg(wire.KindData, 7)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if in.Msg.Seq != 7 {
		t.Fatalf("seq = %d", in.Msg.Seq)
	}
	waitCounter(t, reg, "transport.decode_errors", 5)
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *stats.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if got := reg.Counter(name).Value(); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUDPSyscallsPerDatagram is the loopback load test for the batching
// win: with batch I/O, moving a datagram must cost well under half a
// syscall on each side. Skipped where batch I/O is unavailable.
func TestUDPSyscallsPerDatagram(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.BatchIO() {
		t.Skip("batch I/O unavailable on this platform")
	}
	b, err := ListenUDP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	regA, regB := stats.NewRegistry(), stats.NewRegistry()
	a.SetMetrics(regA)
	b.SetMetrics(regB)

	const (
		window  = DefaultBatch
		windows = 16
	)
	body := make([]byte, 512)
	m := &wire.Message{Kind: wire.KindData, Group: 1, Sender: 1, Body: body}
	deadline := time.After(10 * time.Second)
	got := 0
	for w := 0; w < windows; w++ {
		for i := 0; i < window; i++ {
			m.Seq = uint64(w*window + i)
			if err := a.SendBatch(2, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < window; i++ {
			select {
			case in := <-b.Recv():
				wire.PutMessage(in.Msg)
				got++
			case <-deadline:
				t.Fatalf("timed out after %d of %d datagrams", got, window*windows)
			}
		}
	}
	sa := regA.Snapshot()
	sb := regB.Snapshot()
	sent := sa.Counters["transport.datagrams_sent"]
	recvd := sb.Counters["transport.datagrams_recv"]
	txSys := sa.Counters["transport.syscalls_tx"]
	rxSys := sb.Counters["transport.syscalls_rx"]
	if sent == 0 || recvd == 0 {
		t.Fatalf("no traffic counted: sent=%d recvd=%d", sent, recvd)
	}
	txRatio := float64(txSys) / float64(sent)
	rxRatio := float64(rxSys) / float64(recvd)
	combined := float64(txSys+rxSys) / float64(sent+recvd)
	t.Logf("tx: %d syscalls / %d datagrams = %.3f; rx: %d / %d = %.3f; combined %.3f",
		txSys, sent, txRatio, rxSys, recvd, rxRatio, combined)
	if txRatio >= 0.5 {
		t.Errorf("tx syscalls per datagram = %.3f, want < 0.5", txRatio)
	}
	if combined >= 0.5 {
		t.Errorf("combined syscalls per datagram = %.3f, want < 0.5", combined)
	}
	if fill, ok := sb.Histograms["transport.batch_fill"]; ok && fill.Count > 0 {
		t.Logf("rx batch_fill: n=%d mean=%.1f max=%.0f", fill.Count, fill.Mean, fill.Max)
	}
}

// TestInprocBatchSender pins the Fabric's BatchSender: nothing crosses
// the fabric before Flush, and a Flush delivers the queue in order.
func TestInprocBatchSender(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	src, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := src.(BatchSender)
	if !ok {
		t.Fatal("fabric endpoint does not implement BatchSender")
	}
	scratch := &wire.Message{Kind: wire.KindData}
	for i := 0; i < 5; i++ {
		scratch.Seq = uint64(i) // reused message: SendBatch must encode now
		if err := bs.SendBatch(2, scratch); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case in := <-dst.Recv():
		t.Fatalf("message %v delivered before Flush", in.Msg)
	case <-time.After(20 * time.Millisecond):
	}
	if err := bs.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		select {
		case in := <-dst.Recv():
			if in.Msg.Seq != uint64(i) {
				t.Fatalf("seq = %d, want %d", in.Msg.Seq, i)
			}
		case <-time.After(time.Second):
			t.Fatalf("missing message %d after Flush", i)
		}
	}
	// Unflushed datagrams must be released when the endpoint closes.
	if err := bs.SendBatch(2, scratch); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPConcurrentSenders exercises the copy-on-write peer table: many
// goroutines sending while peers are added must not race (the -race
// suite is the assertion) and every registered peer must resolve.
func TestUDPConcurrentSenders(t *testing.T) {
	a, b := newUDPPair(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Re-register an extra peer while sends are in flight.
			if err := a.AddPeer(id.Node(100+i%8), b.LocalAddr().String()); err != nil {
				t.Errorf("AddPeer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := a.Send(2, msg(wire.KindData, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	// Drain whatever arrived; the count is not under test (UDP may drop).
	for {
		select {
		case in := <-b.Recv():
			wire.PutMessage(in.Msg)
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = fmt.Sprintf // keep fmt imported if assertions change
