package wire

import (
	"bytes"
	"testing"
	"unsafe"

	"scalamedia/internal/id"
	"scalamedia/internal/vclock"
)

// fuzzBatch builds a receive batch from fuzz input: data itself as one raw
// datagram, then twelve valid encodings whose sections are cut from data,
// the i-th of which is corrupted (truncated, or given an unknown kind)
// when bit i of corrupt is set.
func fuzzBatch(data []byte, corrupt uint16) [][]byte {
	batch := [][]byte{data}
	for i := 0; i < 12; i++ {
		m := &Message{Kind: KindData, From: 9, Sender: id.Node(i + 1), Seq: uint64(i)}
		m.Body = data[:(i*37+len(data))%(len(data)+1)]
		if i == 11 { // a body too large to share a chunk
			m.Body = bytes.Repeat(append([]byte{byte(i)}, data...), 1+(arenaBytes/4)/(len(data)+1))
		}
		if n := i % 4; n > 0 {
			m.Flags |= FlagCausal
			m.TS = make(vclock.VC, n)
			for j := range m.TS {
				m.TS[j] = uint32(len(data) + j)
			}
		}
		if n := i % 3; n > 0 {
			m.Flags |= FlagPiggyAck
			for j := 0; j < n; j++ {
				m.Acks = append(m.Acks, AckEntry{Sender: id.Node(j + 1), Seq: uint64(i + j)})
			}
		}
		d := m.Marshal()
		if corrupt&(1<<i) != 0 {
			if i%2 == 0 {
				d = d[:len(d)/2]
			} else {
				d[0] = 0xff
			}
		}
		batch = append(batch, d)
	}
	return batch
}

// span is the backing storage of one section, as an address range.
type span struct{ lo, hi uintptr }

func spanOf[T any](s []T) span {
	if cap(s) == 0 {
		return span{}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	var zero T
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero)}
}

// checkDisjoint fails when any two sections of the messages, up to their
// capacity, share a byte of storage.
func checkDisjoint(t *testing.T, msgs []*Message) {
	t.Helper()
	var all []span
	for _, m := range msgs {
		for _, s := range []span{spanOf(m.TS), spanOf(m.Body), spanOf(m.Acks)} {
			if s.hi > s.lo {
				all = append(all, s)
			}
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].lo < all[j].hi && all[j].lo < all[i].hi {
				t.Fatalf("sections share storage: [%#x,%#x) and [%#x,%#x)",
					all[i].lo, all[i].hi, all[j].lo, all[j].hi)
			}
		}
	}
}

// FuzzDecodeBatch decodes a batch of valid and corrupt datagrams into one
// Arena, as a transport's reading goroutine does. The arena must accept
// exactly what Decode accepts and produce the same messages; the TS, Body
// and Acks of distinct messages must not share storage, so appending to
// one never changes another; and a message held while 1 000 later
// batches go through the arena must keep its bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte("hello"), uint16(0))
	f.Add(bytes.Repeat([]byte{7}, 300), uint16(0x0a5a))
	f.Add(goldenMessages()[0].Marshal(), uint16(0xffff))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, corrupt uint16) {
		batch := fuzzBatch(data, corrupt)
		var a Arena
		var held []*Message
		var want [][]byte
		for _, d := range batch {
			m, err := a.Decode(d)
			ref, refErr := Decode(d)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("arena error %v, Decode error %v", err, refErr)
			}
			if err != nil {
				continue
			}
			if !messagesEqual(m, ref) {
				t.Fatalf("arena decoded %+v, Decode %+v", m, ref)
			}
			held = append(held, m)
			want = append(want, m.Marshal())
		}
		checkDisjoint(t, held)
		for i, m := range held {
			body, ts, acks := m.Body, m.TS, m.Acks
			m.Body = append(m.Body, 0xaa)
			m.TS = append(m.TS, 0xaaaaaaaa)
			m.Acks = append(m.Acks, AckEntry{Sender: 0xaa})
			for j, o := range held {
				if j != i && !bytes.Equal(o.Marshal(), want[j]) {
					t.Fatalf("appending to message %d changed message %d", i, j)
				}
			}
			m.Body, m.TS, m.Acks = body, ts, acks
		}
		for i := 0; i < 1000; i++ {
			for _, d := range batch {
				_, _ = a.Decode(d)
			}
		}
		for j, m := range held {
			if !bytes.Equal(m.Marshal(), want[j]) {
				t.Fatalf("message %d changed while 1000 later batches were decoded", j)
			}
		}
	})
}

// TestArenaDecodeAllocs pins the receive arena's cost: a steady stream of
// 32-datagram batches, each datagram a 64-byte body with a piggybacked
// stability vector, allocates at most 0.1 times per datagram.
func TestArenaDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	batch := make([][]byte, 32)
	for i := range batch {
		m := &Message{Kind: KindData, Flags: FlagPiggyAck, From: 2, Sender: 2, Seq: uint64(i),
			Body: make([]byte, 64), Acks: []AckEntry{{1, 5}, {2, 9}, {3, 7}, {4, 1}}}
		batch[i] = m.Marshal()
	}
	var a Arena
	allocs := testing.AllocsPerRun(200, func() {
		for _, d := range batch {
			if _, err := a.Decode(d); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / float64(len(batch)); per > 0.1 {
		t.Fatalf("%.3f allocations per datagram, want <= 0.1", per)
	}
}

// TestArenaReusesReleasedMessage: a message a consumer hands back with
// PutMessage is the next one Decode fills, sections and all, so a
// consumer that releases what it reads keeps the path allocation-free.
func TestArenaReusesReleasedMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pool Puts at random")
	}
	d := (&Message{Kind: KindData, Seq: 3, Body: []byte("abcd")}).Marshal()
	var a Arena
	// A Put lands in the current P's private slot; a goroutine moved to
	// another P in between misses it, so allow a few tries.
	for try := 0; try < 10; try++ {
		m, err := a.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		body := unsafe.SliceData(m.Body)
		PutMessage(m)
		again, err := a.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		if again == m && unsafe.SliceData(again.Body) == body {
			return
		}
	}
	t.Fatal("a released message was never reused")
}
