package bulk

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder — they
// arrive in session messages and join acks. Whatever decodes must be valid,
// within the bounds a receiver sizes its tracking state by, and must
// re-encode to the bytes it was decoded from.
func FuzzDecodeManifest(f *testing.F) {
	good := Manifest{Object: 0xdeadbeef, Size: 3*16*1024 - 100, Origin: 7, SymbolSize: 1024, K: 16, R: 4, GenHashes: []uint64{1, 2, 3}}
	enc := AppendManifest(nil, good)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])                                // truncated hashes
	f.Add(append(append([]byte(nil), enc...), 0xff, 0xfe)) // trailing bytes
	f.Add(AppendManifest(nil, Manifest{Object: 1, Size: 1, Origin: 2, SymbolSize: 1, K: 1, R: 254, GenHashes: []uint64{9}}))
	// r = 0: a path whose receivers reported no loss.
	f.Add(AppendManifest(nil, Manifest{Object: 2, Size: 3*16*1024 - 100, Origin: 7, SymbolSize: 1024, K: 16, R: 0, GenHashes: []uint64{1, 2, 3}}))
	f.Add(AppendManifest(nil, Manifest{Object: 3, Size: 1, Origin: 2, SymbolSize: 1, K: 1, R: 0, GenHashes: []uint64{9}}))
	huge := append([]byte(nil), enc...)
	copy(huge[8:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // size 2^64-1
	f.Add(huge)
	gens := append([]byte(nil), enc...)
	copy(gens[30:], []byte{0xff, 0xff, 0xff, 0xff}) // 2^32-1 generations declared
	f.Add(gens)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeManifest(buf)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded manifest does not validate: %v", err)
		}
		if m.Size > MaxObjectSize || m.Generations() > maxGenerations || m.Generations()*(m.K+m.R) > maxSymbols {
			t.Fatalf("decoded manifest exceeds the receiver's bounds: %d bytes, %d generations of %d", m.Size, m.Generations(), m.K+m.R)
		}
		again := AppendManifest(nil, m)
		if len(again) > len(buf) || !bytes.Equal(again, buf[:len(again)]) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(buf))
		}
	})
}

// FuzzOnMessage feeds arbitrary symbol-plane headers to both ends of a
// transfer: an origin part-way through a scatter held up by its window,
// and a receiver holding part of the object. Nothing may panic, the window
// must hold, the origin may choose r = 0 for its next object only on a
// member's well-formed completion report that counts no loss, and the
// receiver must still end up with the object published once it has been
// given every true symbol.
func FuzzOnMessage(f *testing.F) {
	cfg := Config{Group: 1, SymbolSize: 64, DataShards: 4, RepairShards: 2}
	members := []id.Node{1, 2, 3}
	data := testObject(5*4*64-10, 60) // five generations
	// kind, flags, from, object, aux, body length, body seed
	f.Add(false, uint8(0), uint64(1), uint64(5), uint64(2)<<32|1, uint16(64), byte(0))                     // a symbol, wrong bytes
	f.Add(false, wire.FlagBulkFan, uint64(1), uint64(5), uint64(4)<<32|5, uint16(64), byte(1))             // flagged for re-fan
	f.Add(false, uint8(0), uint64(3), uint64(5), uint64(0), uint16(0), byte(0))                            // "not held"
	f.Add(false, uint8(0), uint64(3), uint64(5), uint64(9)<<32|9, uint16(64), byte(2))                     // out of range
	f.Add(false, uint8(0), uint64(3), uint64(77), uint64(0), uint16(10), byte(3))                          // unknown object: stashed
	f.Add(true, uint8(0), uint64(2), uint64(5), uint64(1)<<32|2, uint16(0), byte(0))                       // a request
	f.Add(true, uint8(0), uint64(2), uint64(5), uint64(1)<<63|7, uint16(0), byte(0))                       // a request far out of range
	f.Add(true, wire.FlagBulkReport, uint64(2), uint64(5), uint64(1)<<32|3, uint16(0), byte(0))            // a report
	f.Add(true, wire.FlagBulkReport, uint64(3), uint64(5), ^uint64(0), uint16(0), byte(0))                 // a report beyond the object
	f.Add(true, wire.FlagBulkReport, uint64(9), uint64(5), uint64(5)<<32, uint16(0), byte(0))              // from a stranger
	f.Add(true, wire.FlagBulkReport|wire.FlagBulkFan, uint64(2), uint64(6), uint64(0), uint16(3), byte(0)) // unknown scatter
	// Completion reports (the whole object, 5 generations of 6, seen) and
	// the loss count in their body.
	f.Add(true, wire.FlagBulkReport, uint64(2), uint64(5), uint64(5)<<32, uint16(4), byte(0))    // nothing lost
	f.Add(true, wire.FlagBulkReport, uint64(3), uint64(5), uint64(5)<<32, uint16(2), byte(0))    // short
	f.Add(true, wire.FlagBulkReport, uint64(2), uint64(5), uint64(5)<<32, uint16(9), byte(0))    // oversized
	f.Add(true, wire.FlagBulkReport, uint64(2), uint64(5), uint64(5)<<32, uint16(4), byte(0xff)) // more symbols than the object has
	f.Add(true, wire.FlagBulkReport, uint64(9), uint64(5), uint64(5)<<32, uint16(4), byte(0))    // from a stranger
	f.Add(true, wire.FlagBulkReport, uint64(2), uint64(77), uint64(5)<<32, uint16(4), byte(0))   // another object
	f.Fuzz(func(t *testing.T, req bool, flags uint8, from, obj, aux uint64, bodyLen uint16, fill byte) {
		oenv := &recEnv{self: 1, now: time.Unix(1000, 0)}
		origin := New(oenv, cfg)
		origin.window = 8 * cfg.SymbolSize
		origin.SetMembers(members)
		man, err := origin.Publish(5, data)
		if err != nil {
			t.Fatal(err)
		}
		origin.Scatter(5)

		renv := &recEnv{self: 2, now: time.Unix(1000, 0)}
		recv := New(renv, cfg)
		recv.window = origin.window
		recv.SetMembers(members)
		recv.OnManifest(man)
		for g := 0; g < 3; g++ { // part of the object: two generations decoded, one short
			for i := 0; i < cfg.DataShards-g/2; i++ {
				recv.OnMessage(1, symbolMsg(origin, 5, g, i, 0))
			}
		}

		kind := wire.KindBulkSym
		if req {
			kind = wire.KindBulkReq
		}
		msg := func() *wire.Message {
			return &wire.Message{Kind: kind, Flags: flags, Group: 1, Sender: 1, Seq: obj, Aux: aux,
				Body: bytes.Repeat([]byte{fill}, int(bodyLen)%(2*cfg.SymbolSize))}
		}
		for _, e := range []*Engine{origin, recv} {
			e.OnMessage(id.Node(from), msg())
			e.OnMessage(id.Node(from), msg()) // and its duplicate
			now := e.env.Now().Add(2 * RequestEvery)
			e.env.(*recEnv).now = now
			e.OnTick(now)
		}
		if peak := origin.m.scatterInflightMax.Value(); peak > int64(origin.window) {
			t.Fatalf("in-flight peak %d above the window of %d", peak, origin.window)
		}
		body := msg().Body
		clean := req && flags&wire.FlagBulkReport != 0 && obj == 5 && (from == 2 || from == 3) &&
			len(body) == 4 && binary.BigEndian.Uint32(body) == 0
		if r := origin.repairShards(); r == 0 && !clean {
			t.Fatalf("origin chose r = 0 after a report with a %d-byte body %x", len(body), body)
		}
		// Let the receiver finish from the origin's true symbols. Twice: a
		// generation the fuzzed symbol poisoned is thrown away whole when
		// its hash fails, true symbols included, and asked for again.
		for pass := 0; pass < 2; pass++ {
			for g := range origin.objects[5].gens {
				for i := 0; i < cfg.DataShards+cfg.RepairShards; i++ {
					recv.OnMessage(1, symbolMsg(origin, 5, g, i, 0))
				}
			}
		}
		recv.OnTick(renv.now.Add(time.Second))
		if got, ok := recv.Object(5); !ok || !bytes.Equal(got, data) {
			t.Fatalf("receiver did not end up with the object published (complete: %v)", ok)
		}
	})
}
