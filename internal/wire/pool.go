package wire

import (
	"sync"
	"sync/atomic"
)

// Buffer and message pools for the data-plane hot path. Transports encode
// into pooled byte slices, so the steady-state send path performs zero
// heap allocations per datagram, and decode into pooled Messages. The
// live receive path does not recycle: the engines retain every inbound
// message, so the UDP decode workers put a Message back only on a decode
// error or a queue drop, and each inbound datagram costs a fresh Message,
// Body and Acks (3 allocations). Both pools are optional: callers that
// retain what they receive should keep using Marshal/Decode, which
// allocate fresh storage.

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

var msgPool = sync.Pool{
	New: func() any {
		msgMisses.Add(1)
		return &Message{}
	},
}

// GetMessage returns a pooled Message ready for DecodeInto. The message
// keeps the TS/Body/Acks capacity of its previous use, so a steady
// decode loop stops allocating once warm.
func GetMessage() *Message {
	msgGets.Add(1)
	return msgPool.Get().(*Message)
}

// PutMessage returns a message obtained from GetMessage to the pool. The
// caller must not retain the message or any of its slices afterwards.
func PutMessage(m *Message) {
	if m == nil || cap(m.Body) > maxPooledBuf {
		return
	}
	msgPool.Put(m)
}
