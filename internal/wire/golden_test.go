package wire

import (
	"errors"
	"testing"

	"scalamedia/internal/id"
	"scalamedia/internal/vclock"
)

// goldenMessages returns one representative message per protocol kind,
// with realistic bodies for the kinds that carry structured payloads,
// plus variants exercising the piggybacked-ack encoding. The set drives
// the golden round-trip/rejection tests below and seeds the fuzz corpus.
func goldenMessages() []*Message {
	view := AppendViewBody(nil, ViewBody{View: 7, Members: []id.Node{1, 2, 3}})
	viewAddrs := AppendViewBody(nil, ViewBody{View: 9, Members: []id.Node{1, 2, 3},
		Addrs: []string{"192.0.2.1:7000", "", "[2001:db8::3]:7000"}})
	return []*Message{
		{Kind: KindData, Sender: 3, Seq: 9, View: 2, Group: 7, Body: []byte("payload")},
		{Kind: KindRetrans, Sender: 4, Seq: 10, From: 2, Body: []byte("again")},
		{Kind: KindStable, From: 6, Body: AppendAckVector(nil, []AckEntry{{Sender: 1, Seq: 5}, {Sender: 2, Seq: 9}})},
		{Kind: KindHeartbeat, From: 2, Group: 1, Aux: 77},
		{Kind: KindJoinReq, From: 9, Group: 4},
		{Kind: KindJoinAck, From: 1, Group: 4, Body: view},
		{Kind: KindViewPropose, View: 3, Body: view},
		{Kind: KindFlush, View: 3, Aux: 8},
		{Kind: KindFlushOK, From: 2, View: 3},
		{Kind: KindViewCommit, View: 8, Body: view},
		{Kind: KindLeave, From: 5, Group: 4},
		{Kind: KindMedia, Stream: 5, MediaTS: 90000, Flags: FlagMarker, Body: []byte{0xde, 0xad}},
		{Kind: KindRelay, From: 11, Body: (&Message{Kind: KindData, Sender: 1, Seq: 1}).Marshal()},
		{Kind: KindSessionCtl, From: 1, Aux: 2, Body: []byte("op")},
		{Kind: KindAck, From: 3, Sender: 2, Seq: 40},
		{Kind: KindClockProbe, From: 1, Aux: 0xfeed},
		{Kind: KindClockReply, From: 2, Aux: 0xfeed, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: KindReport, From: 4, Stream: 5, Aux: 3},
		{Kind: KindNackBatch, From: 3, Body: AppendNackRanges(nil, []NackRange{
			{Sender: 2, From: 3, To: 7}, {Sender: 0, From: 11, To: 11},
		})},
		{Kind: KindRepairReq, From: 8, Sender: 4, Seq: 10, Aux: 14},
		// Overlay formation control: a distance-vector report (op 1) and a
		// topology announcement (op 2); the body is hier's op-tagged
		// encoding, opaque at the wire layer, with the epoch in Aux.
		{Kind: KindHierCtl, From: 3, Group: 5, Aux: 12,
			Body: []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 9, 196}},
		// Self-healing membership variants: a join request advertising a
		// return address, and view messages carrying the member→address map.
		{Kind: KindJoinReq, From: 9, Group: 4, Body: AppendJoinBody(nil, "192.0.2.9:7000")},
		{Kind: KindViewPropose, View: 9, Body: viewAddrs},
		{Kind: KindViewCommit, View: 9, Body: viewAddrs},
		// Bulk dissemination: a coded symbol (object 0x42, generation 1,
		// index 5), the same symbol flagged for coordinator re-fanning, a
		// symbol request, and a scatter progress report.
		{Kind: KindBulkSym, From: 2, Sender: 1, Group: 4, Seq: 0x42,
			Aux: 1<<32 | 5, Body: []byte("coded-symbol-bytes")},
		{Kind: KindBulkSym, From: 2, Sender: 1, Group: 4, Seq: 0x42,
			Aux: 1<<32 | 5, Flags: FlagBulkFan, Body: []byte("coded-symbol-bytes")},
		{Kind: KindBulkReq, From: 7, Group: 4, Seq: 0x42, Aux: 2<<32 | 3},
		{Kind: KindBulkReq, From: 7, Group: 4, Seq: 0x42, Aux: 51<<32 | 4, Flags: FlagBulkReport},
		// Pipelined range ordering: the sequencer's run announcements for
		// two senders, an empty list, and a single-unit recovery reply.
		{Kind: KindOrderRange, From: 1, View: 3, Body: AppendOrderRanges(nil, []OrderRange{
			{SlotFrom: 12, Sender: 2, SeqFrom: 5, Count: 9},
			{SlotFrom: 21, Sender: 3, SeqFrom: 1, Count: 1},
		})},
		{Kind: KindOrderRange, From: 1, View: 3, Body: AppendOrderRanges(nil, nil)},
		{Kind: KindOrderRange, From: 2, View: 4, Body: AppendOrderRanges(nil,
			[]OrderRange{{SlotFrom: 7, Sender: 4, SeqFrom: 11, Count: 3}})},
		// Piggybacked-ack variants: a data message and a causal data message
		// each carrying a stability vector after the body.
		{Kind: KindData, Flags: FlagPiggyAck, Sender: 3, Seq: 10, Body: []byte("pb"),
			Acks: []AckEntry{{Sender: 1, Seq: 4}, {Sender: 3, Seq: 9}}},
		{Kind: KindData, Flags: FlagPiggyAck | FlagCausal, Sender: 1, Seq: 2,
			TS: vclock.VC{2, 0, 1}, Acks: []AckEntry{{Sender: 2, Seq: 1}}},
	}
}

// trailingOrderRanges is a well-formed one-unit KindOrderRange body
// followed by bytes the list does not account for — what the parent
// revision's second (merge) section would look like to this decoder.
func trailingOrderRanges() []byte {
	body := AppendOrderRanges(nil, []OrderRange{{SlotFrom: 7, Sender: 4, SeqFrom: 11, Count: 3}})
	return append(body, 0, 0, 0, 0)
}

// goldenRejected returns datagrams the envelope decoder must refuse with
// ErrBadKind: the first kind number above kindMax, and 27, the top of the
// enumeration before three kinds were retired.
func goldenRejected() [][]byte {
	var out [][]byte
	for _, k := range []Kind{kindMax + 1, 27} {
		buf := (&Message{Kind: KindData, Sender: 3, Seq: 9, Body: []byte("payload")}).Marshal()
		buf[0] = byte(k)
		out = append(out, buf)
	}
	return out
}

// TestGoldenRejected pins the two refusals the 24-kind enumeration and
// the single-section order-range body add.
func TestGoldenRejected(t *testing.T) {
	if kindMax != 24 {
		t.Fatalf("kindMax = %d, want 24", kindMax)
	}
	for _, buf := range goldenRejected() {
		if _, err := Decode(buf); !errors.Is(err, ErrBadKind) {
			t.Errorf("kind %d: err = %v, want ErrBadKind", buf[0], err)
		}
	}
	if _, err := DecodeOrderRanges(trailingOrderRanges()); !errors.Is(err, ErrTooLarge) {
		t.Errorf("order ranges with bytes after the list: err = %v, want ErrTooLarge", err)
	}
}

// TestGoldenKindsCovered keeps goldenMessages in sync with the Kind
// enumeration: every valid kind must appear at least once.
func TestGoldenKindsCovered(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, m := range goldenMessages() {
		seen[m.Kind] = true
	}
	for k := KindData; k <= kindMax; k++ {
		if !seen[k] {
			t.Errorf("goldenMessages has no example for kind %s", k)
		}
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	for _, m := range goldenMessages() {
		m := m
		t.Run(m.Kind.String(), func(t *testing.T) {
			buf := m.Marshal()
			if len(buf) != m.EncodedLen() {
				t.Fatalf("Marshal length %d != EncodedLen %d", len(buf), m.EncodedLen())
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !messagesEqual(m, got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
			}
		})
	}
}

// TestGoldenTruncation verifies every proper prefix of every golden
// encoding is rejected: the decoder must demand each declared section in
// full rather than return a partially populated message.
func TestGoldenTruncation(t *testing.T) {
	for _, m := range goldenMessages() {
		m := m
		t.Run(m.Kind.String(), func(t *testing.T) {
			buf := m.Marshal()
			for cut := 0; cut < len(buf); cut++ {
				if _, err := Decode(buf[:cut]); !errors.Is(err, ErrShortMessage) {
					t.Fatalf("prefix %d/%d: err = %v, want ErrShortMessage",
						cut, len(buf), err)
				}
			}
		})
	}
}

// TestGoldenCorruption flips the kind byte and inflates the section
// length fields of each golden encoding and checks for typed rejections.
func TestGoldenCorruption(t *testing.T) {
	for _, m := range goldenMessages() {
		m := m
		t.Run(m.Kind.String(), func(t *testing.T) {
			buf := m.Marshal()

			bad := append([]byte(nil), buf...)
			bad[0] = 0
			if _, err := Decode(bad); !errors.Is(err, ErrBadKind) {
				t.Fatalf("zero kind: err = %v, want ErrBadKind", err)
			}
			bad[0] = byte(kindMax) + 1
			if _, err := Decode(bad); !errors.Is(err, ErrBadKind) {
				t.Fatalf("kind above range: err = %v, want ErrBadKind", err)
			}

			bad = append(bad[:0], buf...)
			bad[headerLen], bad[headerLen+1] = 0xff, 0xff // timestamp count
			if _, err := Decode(bad); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("huge TS count: err = %v, want ErrTooLarge", err)
			}

			bad = append(bad[:0], buf...)
			off := headerLen + 2 + 4*len(m.TS) // body length field
			bad[off], bad[off+1], bad[off+2], bad[off+3] = 0xff, 0xff, 0xff, 0xff
			if _, err := Decode(bad); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("huge body length: err = %v, want ErrTooLarge", err)
			}

			if m.Flags&FlagPiggyAck != 0 {
				bad = append(bad[:0], buf...)
				off = headerLen + 2 + 4*len(m.TS) + 4 + len(m.Body) // ack count
				bad[off], bad[off+1], bad[off+2], bad[off+3] = 0xff, 0xff, 0xff, 0xff
				if _, err := Decode(bad); !errors.Is(err, ErrTooLarge) {
					t.Fatalf("huge ack count: err = %v, want ErrTooLarge", err)
				}
			}
		})
	}
}

// TestDecodeIntoReuse decodes every golden message into one recycled
// Message and checks the results match fresh decodes — slice reuse must
// never leak a previous message's sections into the next.
func TestDecodeIntoReuse(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	for _, want := range goldenMessages() {
		buf := want.Marshal()
		if err := DecodeInto(m, buf); err != nil {
			t.Fatalf("%s: DecodeInto: %v", want.Kind, err)
		}
		if !messagesEqual(want, m) {
			t.Fatalf("%s: reuse mismatch:\n in: %+v\nout: %+v", want.Kind, want, m)
		}
	}
}

// TestDecodeIntoZeroAlloc pins the hot-path claim: once warm, decoding a
// steady stream of same-shaped data messages into a recycled Message
// does not allocate.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	src := &Message{
		Kind: KindData, Flags: FlagPiggyAck | FlagCausal,
		Sender: 3, Seq: 9, TS: vclock.VC{1, 2, 3, 4},
		Body: []byte("steady-state payload bytes"),
		Acks: []AckEntry{{Sender: 1, Seq: 8}, {Sender: 2, Seq: 6}},
	}
	buf := src.Marshal()
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil { // warm the slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(m, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 0.5 {
		t.Fatalf("DecodeInto allocates %.1f times per op, want 0", allocs)
	}
}

// TestEncodeZeroAlloc pins the encode side: encoding into a pooled
// buffer with sufficient capacity does not allocate.
func TestEncodeZeroAlloc(t *testing.T) {
	src := &Message{
		Kind: KindData, Sender: 3, Seq: 9,
		Body: []byte("steady-state payload bytes"),
	}
	buf := GetBuf()
	defer PutBuf(buf)
	*buf = src.Encode((*buf)[:0]) // warm the capacity
	allocs := testing.AllocsPerRun(200, func() {
		*buf = src.Encode((*buf)[:0])
	})
	if allocs >= 0.5 {
		t.Fatalf("Encode allocates %.1f times per op, want 0", allocs)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(*b) != 0 {
		t.Fatalf("GetBuf returned non-empty slice: %d bytes", len(*b))
	}
	*b = append(*b, make([]byte, 100)...)
	PutBuf(b)

	big := make([]byte, 0, maxPooledBuf+1)
	PutBuf(&big) // must be dropped, not pooled
	PutBuf(nil)  // must not panic

	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatalf("recycled buffer not reset: %d bytes", len(*b2))
	}
	PutBuf(b2)
}
