package wire

import (
	"bytes"
	"testing"

	"scalamedia/internal/id"
	"scalamedia/internal/vclock"
)

// FuzzDecode throws arbitrary datagrams at the envelope decoder. Decode
// must never panic, and any buffer it accepts must round-trip: re-encoding
// the decoded message and decoding again yields the same message. The
// corpus seeds valid encodings of every section shape so mutation starts
// from the interesting boundaries.
func FuzzDecode(f *testing.F) {
	seeds := []*Message{
		{Kind: KindData, Flags: FlagCausal, Sender: 1, Seq: 1, TS: vclock.VC{4, 0, 9}},
		{Kind: KindMedia, Stream: 5, MediaTS: 90000, Flags: FlagMarker, Body: []byte{0xde, 0xad}},
	}
	seeds = append(seeds, goldenMessages()...)
	for _, m := range seeds {
		f.Add(m.Marshal())
	}
	for _, buf := range goldenRejected() {
		f.Add(buf)
	}
	f.Add((&Message{Kind: KindOrderRange, From: 1, View: 3, Body: trailingOrderRanges()}).Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(m.Marshal())
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !messagesEqual(m, again) {
			t.Fatalf("round trip changed message:\n first: %+v\nsecond: %+v", m, again)
		}
	})
}

// FuzzDecodeBodies exercises the kind-specific body decoders, which parse
// attacker-controlled section lengths of their own.
func FuzzDecodeBodies(f *testing.F) {
	f.Add(AppendNodeList(nil, []id.Node{1, 2, 3}))
	f.Add(AppendAckVector(nil, []AckEntry{{Sender: 1, Seq: 5}, {Sender: 2, Seq: 9}}))
	f.Add(AppendViewBody(nil, ViewBody{View: 4, Members: []id.Node{1, 9}}))
	f.Add(AppendViewBody(nil, ViewBody{View: 4, Members: []id.Node{1, 9},
		Addrs: []string{"192.0.2.1:7000", ""}}))
	f.Add(AppendJoinBody(nil, "192.0.2.9:7000"))
	f.Add(AppendNackRanges(nil, []NackRange{{Sender: 2, From: 3, To: 7}, {From: 11, To: 11}}))
	f.Add(AppendOrderRanges(nil, []OrderRange{{SlotFrom: 3, Sender: 4, SeqFrom: 2, Count: 5}}))
	f.Add(trailingOrderRanges())
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if nodes, _, err := DecodeNodeList(data); err == nil {
			back, n2, err := DecodeNodeList(AppendNodeList(nil, nodes))
			if err != nil || len(back) != len(nodes) || n2 != 4+8*len(nodes) {
				t.Fatalf("node list round trip: %v %d %v", back, n2, err)
			}
		}
		if acks, _, err := DecodeAckVector(data); err == nil {
			back, _, err := DecodeAckVector(AppendAckVector(nil, acks))
			if err != nil || len(back) != len(acks) {
				t.Fatalf("ack vector round trip: %v %v", back, err)
			}
		}
		if vb, err := DecodeViewBody(data); err == nil {
			back, err := DecodeViewBody(AppendViewBody(nil, vb))
			if err != nil || back.View != vb.View || len(back.Members) != len(vb.Members) ||
				len(back.Addrs) != len(vb.Addrs) {
				t.Fatalf("view body round trip: %+v %v", back, err)
			}
		}
		if addr, err := DecodeJoinBody(data); err == nil {
			back, err := DecodeJoinBody(AppendJoinBody(nil, addr))
			if err != nil || back != addr {
				t.Fatalf("join body round trip: %q %v", back, err)
			}
		}
		if ranges, _, err := DecodeNackRanges(data); err == nil {
			back, n2, err := DecodeNackRanges(AppendNackRanges(nil, ranges))
			if err != nil || len(back) != len(ranges) || n2 != 4+24*len(ranges) {
				t.Fatalf("nack range round trip: %v %d %v", back, n2, err)
			}
		}
		if rs, err := DecodeOrderRanges(data); err == nil {
			again := AppendOrderRanges(nil, rs)
			if back, err := DecodeOrderRanges(again); err != nil || len(back) != len(rs) || !bytes.Equal(again, data) {
				t.Fatalf("order range round trip: %v %v, %d bytes in, %d out", back, err, len(data), len(again))
			}
		}
	})
}

func messagesEqual(a, b *Message) bool {
	if a.Kind != b.Kind || a.Flags != b.Flags || a.From != b.From ||
		a.Group != b.Group || a.View != b.View || a.Sender != b.Sender ||
		a.Seq != b.Seq || a.Aux != b.Aux || a.Stream != b.Stream ||
		a.MediaTS != b.MediaTS || !bytes.Equal(a.Body, b.Body) {
		return false
	}
	if len(a.TS) != len(b.TS) {
		return false
	}
	for i := range a.TS {
		if a.TS[i] != b.TS[i] {
			return false
		}
	}
	if len(a.Acks) != len(b.Acks) {
		return false
	}
	for i := range a.Acks {
		if a.Acks[i] != b.Acks[i] {
			return false
		}
	}
	return true
}
