package wire

import (
	"sync"
	"sync/atomic"
)

// Buffer and message pools for the data-plane hot path. Transports encode
// into pooled byte slices, so the steady-state send path performs zero
// heap allocations per datagram. The live receive path decodes into an
// Arena instead (arena.go): the engines retain every inbound message, so
// a pooled Message would come back only on an error, and the arena costs
// a small fraction of an allocation per datagram. A consumer that does
// release a received message with PutMessage hands it to the next
// Arena.Decode or GetMessage. Both pools are optional: callers that
// retain what they decode themselves should use Decode, which allocates
// fresh storage.

// maxPooledBuf caps the capacity of byte slices returned to the pool;
// oversized one-off buffers (large fragments, wide batches) are dropped
// so the pool stays sized for the steady state.
const maxPooledBuf = 64 * 1024

// Pool telemetry: gets count every acquisition, misses count the subset
// that fell through to the New func (a fresh allocation). Hit rate is
// (gets-misses)/gets. Plain atomics keep the counters off the sync.Pool
// fast path's critical section.
var (
	bufGets   atomic.Uint64
	bufMisses atomic.Uint64
	msgGets   atomic.Uint64
	msgMisses atomic.Uint64
)

// PoolCounters is a point-in-time reading of the wire pools' traffic.
type PoolCounters struct {
	BufGets   uint64
	BufMisses uint64
	MsgGets   uint64
	MsgMisses uint64
}

// PoolStats returns cumulative get/miss counts for the buffer and message
// pools since process start. A miss is a Get served by a fresh allocation.
func PoolStats() PoolCounters {
	return PoolCounters{
		BufGets:   bufGets.Load(),
		BufMisses: bufMisses.Load(),
		MsgGets:   msgGets.Load(),
		MsgMisses: msgMisses.Load(),
	}
}

// bufPool holds *[]byte (not []byte) so Put does not allocate an
// interface box for the slice header.
var bufPool = sync.Pool{
	New: func() any {
		bufMisses.Add(1)
		b := make([]byte, 0, 2048)
		return &b
	},
}

// GetBuf returns a pooled byte slice with length 0. Release it with
// PutBuf once no reader can still hold it.
func GetBuf() *[]byte {
	bufGets.Add(1)
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a slice obtained from GetBuf to the pool. Oversized
// buffers are dropped rather than pooled.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// msgPool has no New func, so Arena.Decode can take a released message
// when there is one without allocating when there is none.
var msgPool sync.Pool

// GetMessage returns a pooled Message ready for DecodeInto. The message
// keeps the TS/Body/Acks capacity of its previous use, so a steady
// decode loop stops allocating once warm.
func GetMessage() *Message {
	msgGets.Add(1)
	if m, ok := msgPool.Get().(*Message); ok {
		return m
	}
	msgMisses.Add(1)
	return &Message{}
}

// PutMessage returns a message obtained from GetMessage to the pool. The
// caller must not retain the message or any of its slices afterwards.
func PutMessage(m *Message) {
	if m == nil || cap(m.Body) > maxPooledBuf {
		return
	}
	msgPool.Put(m)
}
