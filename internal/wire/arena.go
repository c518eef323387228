package wire

// Receive arenas. The engines keep inbound messages until stability, so
// a live receive path cannot recycle them; an Arena instead carves each
// message's Message, Body, Acks and TS out of shared chunks, cut to the
// exact length the header declares and capacity-capped there, so an
// append to one message never reaches another's bytes. A full chunk is
// replaced, never reused: a retained message keeps its chunks alive
// (DESIGN §8 bounds the pinning) and the garbage collector owns every
// message as before.

// Arena chunk sizes, in elements.
const (
	arenaMsgs  = 64
	arenaBytes = 16 << 10
	arenaAcks  = 256
	arenaTS    = 256
)

// Arena decodes datagrams into messages carved from shared chunks. It is
// not safe for concurrent use: a transport keeps one per receiving
// goroutine, or guards it with the lock that serializes its deliveries.
// The zero value is ready to use.
type Arena struct {
	msgs []Message // the current Message chunk's unused tail
	body []byte    // the current Body chunk, up to its used length
	acks []AckEntry
	ts   []uint32
}

// Decode parses one datagram into a message carved from the arena, with
// the same checks as DecodeInto. The message is the caller's to keep, and
// so are its TS, Body and Acks, which share no bytes with any other
// message. A message some consumer handed back with PutMessage is reused
// first, with its sections kept where they are large enough. On error
// nothing is handed out.
func (a *Arena) Decode(buf []byte) (*Message, error) {
	m, recycled := msgPool.Get().(*Message)
	if !recycled {
		if len(a.msgs) == 0 {
			a.msgs = make([]Message, arenaMsgs)
		}
		m = &a.msgs[0]
	}
	if err := decodeInto(m, buf, a); err != nil {
		if recycled {
			PutMessage(m)
		}
		return nil, err // a carved message stays in place for the next datagram
	}
	if !recycled {
		a.msgs = a.msgs[1:]
	}
	return m, nil
}

// carve returns a zero-length slice with capacity n cut from *chunk, which
// holds size elements and is replaced when it cannot fit n. Requests of
// a quarter chunk or more get a slice of their own.
func carve[T any](chunk *[]T, n, size int) []T {
	if n >= size/4 {
		return make([]T, 0, n)
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, size)
	}
	l := len(c)
	*chunk = c[:l+n]
	return c[l : l : l+n]
}
