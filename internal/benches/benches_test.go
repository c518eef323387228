package benches

import (
	"testing"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

func BenchmarkWireRoundTrip(b *testing.B) { WireRoundTrip(b) }

func BenchmarkRmcastMulticast(b *testing.B) {
	b.Run("full", RmcastMulticastFull)
	b.Run("encode", RmcastMulticastEncode)
	b.Run("instrumented", RmcastMulticastInstrumented)
	b.Run("total", RmcastMulticastTotal)
	b.Run("flow", RmcastMulticastFlow)
}

func BenchmarkTransportLoopback(b *testing.B) { TransportLoopback(b) }

func BenchmarkNetsimNodeStep(b *testing.B) { NetsimNodeStep(b) }

func BenchmarkUDPThroughput(b *testing.B) {
	b.Run("batch", func(b *testing.B) { UDPThroughput(b, transport.DefaultBatch) })
	b.Run("fallback", func(b *testing.B) { UDPThroughput(b, 1) })
}

// TestRmcastEncodeZeroAlloc pins the acceptance bar directly: encoding an
// engine-produced steady-state data message into a pooled buffer must not
// allocate.
func TestRmcastEncodeZeroAlloc(t *testing.T) {
	msg := CapturedDataMessage()
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = msg.Encode((*bp)[:0]) // warm
	allocs := testing.AllocsPerRun(200, func() {
		*bp = msg.Encode((*bp)[:0])
	})
	if allocs >= 0.5 {
		t.Fatalf("multicast encode path allocates %.1f/op, want 0", allocs)
	}
}

// TestInstrumentedMulticastAddsNoAllocs pins the telemetry layer's
// overhead budget: a Multicast with a live registry and flight recorder
// must allocate exactly what the uninstrumented path does, and the
// instrumented encode path (what a transport Send performs on the
// produced message) must stay at zero.
func TestInstrumentedMulticastAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts are inflated")
	}
	reg := stats.NewRegistry()
	fr := flightrec.New(1024)
	eng, _, members := newBenchEngineWith(reg, fr)
	payload := make([]byte, 256)
	var st stabilizer
	for i := 0; i < 128; i++ {
		if err := eng.Multicast(payload); err != nil {
			t.Fatal(err)
		}
	}
	st.ack(eng, members, eng.Counters().Sent)
	allocs := testing.AllocsPerRun(200, func() {
		if err := eng.Multicast(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("instrumented Multicast allocates %.1f/op, want <= 2 (no telemetry overhead)", allocs)
	}
	if got := reg.Snapshot().Counters["rmcast.sent"]; got == 0 {
		t.Fatal("registry saw no sends: instrumentation not wired")
	}
	if fr.Len() == 0 {
		t.Fatal("flight recorder saw no sends: instrumentation not wired")
	}
}

// TestTotalOrderMulticastAllocNeutral pins the total-order hot path at
// zero extra allocations: a Multicast through the range-ordering
// machinery (open-run accumulation, queueing, periodic range flush) must
// fit the same <= 2 allocs/op budget as the FIFO path — the ORDER plane
// rides entirely on reused scratch.
func TestTotalOrderMulticastAllocNeutral(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts are inflated")
	}
	res := testing.Benchmark(RmcastMulticastTotal)
	if allocs := res.AllocsPerOp(); allocs > 2 {
		t.Fatalf("total-order Multicast allocates %d/op, want <= 2 (0 extra over FIFO)", allocs)
	}
}

// TestFlowMulticastAllocNeutral pins the flow-control fast path at zero
// extra allocations: with FlowWindow armed and the window open, a
// Multicast must fit the same 2-alloc budget as the unwindowed path —
// the admission check is integer arithmetic on counters the engine
// already maintains.
func TestFlowMulticastAllocNeutral(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts are inflated")
	}
	res := testing.Benchmark(RmcastMulticastFlow)
	if allocs := res.AllocsPerOp(); allocs > 2 {
		t.Fatalf("flow-controlled Multicast allocates %d/op, want <= 2 (0 extra over unwindowed)", allocs)
	}
}

// TestMulticastSteadyStateAllocs bounds the full per-multicast allocation
// budget: only the retained payload copy and the message struct — the
// outgoing copy is engine scratch; nothing per peer, nothing in the
// encode path.
func TestMulticastSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts are inflated")
	}
	eng, _, members := newBenchEngine()
	payload := make([]byte, 256)
	var st stabilizer
	for i := 0; i < 128; i++ { // warm scratch, pools and peer state
		if err := eng.Multicast(payload); err != nil {
			t.Fatal(err)
		}
	}
	st.ack(eng, members, eng.Counters().Sent)
	allocs := testing.AllocsPerRun(200, func() {
		if err := eng.Multicast(payload); err != nil {
			t.Fatal(err)
		}
	})
	st.ack(eng, members, eng.Counters().Sent)
	if allocs > 2 {
		t.Fatalf("Multicast allocates %.1f/op, want <= 2 (payload copy, message)", allocs)
	}
}
