// Package wire defines the binary message format shared by every protocol
// in the architecture: the reliable multicast layer, the membership layer,
// the failure detector, the hierarchical relay and the real-time media
// channel all exchange wire.Message values.
//
// The encoding is a fixed big-endian header followed by a length-prefixed
// vector timestamp and a length-prefixed opaque body. It is deliberately
// simple: the experiments measure protocol behaviour, not codec cleverness,
// and a fixed layout keeps per-message overhead predictable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scalamedia/internal/id"
	"scalamedia/internal/vclock"
)

// Kind discriminates the protocol message types.
type Kind uint8

// All protocol message kinds.
const (
	// KindData carries an application multicast payload. On total-order
	// data (FlagTotalOrder) Aux is the sender's echo: the first ordering
	// slot it has not yet admitted, which clocks the sequencer's next
	// announcement (internal/rmcast/window.go).
	KindData Kind = iota + 1
	// KindRetrans carries a retransmitted data message.
	KindRetrans
	// KindStable gossips the receiver's delivered-prefix for buffer GC;
	// the body encodes per-sender acknowledged sequence numbers.
	KindStable
	// KindHeartbeat is a failure-detector liveness beacon; Aux is the
	// heartbeat counter.
	KindHeartbeat
	// KindJoinReq asks the group coordinator for admission.
	KindJoinReq
	// KindJoinAck answers a join request; the body encodes the view.
	KindJoinAck
	// KindViewPropose proposes a new view; the body encodes the view.
	KindViewPropose
	// KindFlush asks members to flush unstable messages before the view
	// change completes.
	KindFlush
	// KindFlushOK acknowledges a flush.
	KindFlushOK
	// KindViewCommit installs a proposed view; the body encodes the view.
	KindViewCommit
	// KindLeave announces a voluntary departure.
	KindLeave
	// KindMedia carries one real-time media packet; Stream and MediaTS
	// locate it in the stream, Flags may carry FlagMarker.
	KindMedia
	// KindRelay wraps an inter-cluster message in the hierarchical
	// organization; the body is a nested encoded Message.
	KindRelay
	// KindSessionCtl carries session-control operations.
	KindSessionCtl
	// KindAck is a positive cumulative acknowledgment: the receiver has
	// contiguously delivered Sender's stream up to Seq. Used by the
	// ACK-based baseline multicast of the A2 ablation (internal/experiments).
	KindAck
	// KindClockProbe and KindClockReply carry the clock-synchronization
	// substrate's request/response pair; Aux echoes the probe nonce and
	// the reply body carries the responder's local time.
	KindClockProbe
	KindClockReply
	// KindReport is a receiver quality report (loss, jitter) fed back
	// to a media sender for rate adaptation.
	KindReport
	// KindNackBatch coalesces several retransmission requests into one
	// datagram; the body is a NackRange list (see AppendNackRanges). A
	// range with Sender == 0 is a total-order slot request from slot
	// From upward.
	KindNackBatch
	// KindRepairReq is a multicast retransmission request (SRM-style): it
	// is addressed to the whole group so that (a) other receivers sharing
	// the gap suppress their own requests and (b) any member holding the
	// data may answer with a multicast repair. Sender, Seq and Aux carry
	// the gapped sender and the range [Seq, Aux].
	KindRepairReq
	// KindHierCtl carries overlay-formation control traffic for the
	// self-organizing hierarchy (internal/hier): distance-vector reports
	// from members to the formation leader, and epoch-numbered topology
	// announcements from the leader back. Aux carries the epoch; the body
	// is the hier package's op-tagged encoding.
	KindHierCtl
	// KindBulkSym carries one coded symbol of a bulk object (internal/bulk).
	// Seq is the object ID, Aux packs generation<<32|index, and the body is
	// the symbol payload. FlagBulkFan marks a symbol sent to a remote
	// cluster coordinator for local re-fanning. An empty body answers a
	// KindBulkReq for a symbol the peer does not hold, so the requester
	// can ask elsewhere at once.
	KindBulkSym
	// KindBulkReq asks a peer to (re)send symbols of a bulk object the
	// requester is missing. Seq is the object ID, Aux packs
	// generation<<32|index of one wanted symbol. With FlagBulkReport it
	// asks for nothing: it tells the object's origin how far its scatter
	// has reached the sender, Aux naming the first position not yet seen.
	KindBulkReq
	// KindOrderRange carries pipelined total-order decisions: contiguous
	// slot ranges assigned per (sender, seq-run) by the sequencer. The
	// body is an OrderRange list (see AppendOrderRanges).
	KindOrderRange
)

// kindMax is the highest valid Kind; Decode rejects anything above it.
const kindMax = KindOrderRange

// String returns the protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindRetrans:
		return "retrans"
	case KindStable:
		return "stable"
	case KindHeartbeat:
		return "heartbeat"
	case KindJoinReq:
		return "join-req"
	case KindJoinAck:
		return "join-ack"
	case KindViewPropose:
		return "view-propose"
	case KindFlush:
		return "flush"
	case KindFlushOK:
		return "flush-ok"
	case KindViewCommit:
		return "view-commit"
	case KindLeave:
		return "leave"
	case KindMedia:
		return "media"
	case KindRelay:
		return "relay"
	case KindSessionCtl:
		return "session-ctl"
	case KindAck:
		return "ack"
	case KindClockProbe:
		return "clock-probe"
	case KindClockReply:
		return "clock-reply"
	case KindReport:
		return "report"
	case KindNackBatch:
		return "nack-batch"
	case KindRepairReq:
		return "repair-req"
	case KindHierCtl:
		return "hier-ctl"
	case KindBulkSym:
		return "bulk-sym"
	case KindBulkReq:
		return "bulk-req"
	case KindOrderRange:
		return "order-range"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message flag bits.
const (
	// FlagMarker marks the last media packet of an application data unit
	// (the end of a video frame or a talkspurt).
	FlagMarker uint8 = 1 << iota
	// FlagTotalOrder marks data messages that must wait for a sequencer
	// order announcement before delivery.
	FlagTotalOrder
	// FlagCausal marks data messages carrying a causal vector timestamp.
	FlagCausal
	// FlagParity marks a media packet carrying FEC parity for the block
	// of data packets starting at Seq rather than media data.
	FlagParity
	// FlagFragStart marks the first fragment of a fragmented media
	// frame; FlagMarker marks the last.
	FlagFragStart
	// FlagPiggyAck marks a message carrying a piggybacked stability
	// (ack) vector in the Acks field, encoded after the body. The
	// reliable multicast layer attaches it to outgoing data so steady
	// traffic needs no separate KindStable gossip datagrams.
	FlagPiggyAck
	// FlagBulkFan marks a KindBulkSym unicast to a remote cluster's
	// coordinator, asking it to re-fan the symbol to its own cluster; the
	// coordinator clears the flag on the local copies, bounding relay
	// depth.
	FlagBulkFan
	// FlagBulkReport marks a KindBulkReq as a receiver's progress report
	// to the origin of a scattered object instead of a symbol request
	// (internal/bulk: the reports open the origin's scatter window).
	FlagBulkReport
)

// Encoding limits. Messages violating them fail to decode; they bound the
// memory a malformed datagram can make a node allocate.
const (
	// MaxTimestamp is the maximum number of vector-timestamp entries.
	MaxTimestamp = 4096
	// MaxBody is the maximum body length in bytes.
	MaxBody = 1 << 20
)

// headerLen is the fixed portion of the encoding in bytes.
const headerLen = 1 + 1 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 4

// Decoding errors.
var (
	// ErrShortMessage reports a datagram shorter than the fixed header or
	// its declared variable sections.
	ErrShortMessage = errors.New("wire: short message")
	// ErrBadKind reports an unknown message kind.
	ErrBadKind = errors.New("wire: unknown message kind")
	// ErrTooLarge reports a length field exceeding the encoding limits.
	ErrTooLarge = errors.New("wire: section too large")
)

// Message is the envelope exchanged by all protocol layers. Fields not
// meaningful for a given Kind are zero and cost their fixed header bytes;
// see the Kind constants for per-kind field meaning.
type Message struct {
	Kind    Kind
	Flags   uint8
	From    id.Node   // transport-level sender (relay hop)
	Group   id.Group  // destination group
	View    id.View   // view the message was sent in
	Sender  id.Node   // original application sender
	Seq     uint64    // sender sequence number
	Aux     uint64    // kind-specific (total-order echo on data, repair-range end, hb count, ...)
	Stream  id.Stream // media stream (KindMedia)
	MediaTS uint32    // media clock timestamp (KindMedia)
	TS      vclock.VC // causal timestamp (FlagCausal data)
	Body    []byte
	// Acks is the piggybacked stability vector, present on the wire only
	// when Flags carries FlagPiggyAck (see that flag's documentation).
	Acks []AckEntry
}

// EncodedLen returns the exact encoded size of the message in bytes.
func (m *Message) EncodedLen() int {
	n := headerLen + 2 + 4*len(m.TS) + 4 + len(m.Body)
	if m.Flags&FlagPiggyAck != 0 {
		n += 4 + 16*len(m.Acks)
	}
	return n
}

// Encode appends the binary encoding of m to dst and returns the extended
// slice. Encode never fails; limits are enforced on decode.
func (m *Message) Encode(dst []byte) []byte {
	var hdr [headerLen]byte
	hdr[0] = byte(m.Kind)
	hdr[1] = m.Flags
	binary.BigEndian.PutUint64(hdr[2:], uint64(m.From))
	binary.BigEndian.PutUint32(hdr[10:], uint32(m.Group))
	binary.BigEndian.PutUint64(hdr[14:], uint64(m.View))
	binary.BigEndian.PutUint64(hdr[22:], uint64(m.Sender))
	binary.BigEndian.PutUint64(hdr[30:], m.Seq)
	binary.BigEndian.PutUint64(hdr[38:], m.Aux)
	binary.BigEndian.PutUint32(hdr[46:], uint32(m.Stream))
	binary.BigEndian.PutUint32(hdr[50:], m.MediaTS)
	dst = append(dst, hdr[:]...)

	var n [4]byte
	binary.BigEndian.PutUint16(n[:2], uint16(len(m.TS)))
	dst = append(dst, n[:2]...)
	for _, t := range m.TS {
		binary.BigEndian.PutUint32(n[:], t)
		dst = append(dst, n[:]...)
	}
	binary.BigEndian.PutUint32(n[:], uint32(len(m.Body)))
	dst = append(dst, n[:]...)
	dst = append(dst, m.Body...)
	if m.Flags&FlagPiggyAck != 0 {
		dst = AppendAckVector(dst, m.Acks)
	}
	return dst
}

// Marshal returns the binary encoding of m in a fresh slice.
func (m *Message) Marshal() []byte {
	return m.Encode(make([]byte, 0, m.EncodedLen()))
}

// Decode parses one message from buf into a fresh Message. The returned
// message's TS, Body and Acks are copies, so buf may be reused by the
// caller.
func Decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses one message from buf into m, reusing m's TS, Body and
// Acks backing storage when capacity allows — a steady-state decode
// performs zero heap allocations. All sections are copied out of buf, so
// buf may be reused immediately. Because the slices are recycled, pass
// only messages the receiver will not retain (see GetMessage/PutMessage);
// retaining protocol layers should use Decode.
func DecodeInto(m *Message, buf []byte) error { return decodeInto(m, buf, nil) }

// decodeInto is DecodeInto; with an arena, a section whose reused storage
// is too small is carved from the arena instead of grown by append.
func decodeInto(m *Message, buf []byte, a *Arena) error {
	if len(buf) < headerLen+2+4 {
		return ErrShortMessage
	}
	ts, body, acks := m.TS[:0], m.Body[:0], m.Acks[:0]
	*m = Message{
		Kind:    Kind(buf[0]),
		Flags:   buf[1],
		From:    id.Node(binary.BigEndian.Uint64(buf[2:])),
		Group:   id.Group(binary.BigEndian.Uint32(buf[10:])),
		View:    id.View(binary.BigEndian.Uint64(buf[14:])),
		Sender:  id.Node(binary.BigEndian.Uint64(buf[22:])),
		Seq:     binary.BigEndian.Uint64(buf[30:]),
		Aux:     binary.BigEndian.Uint64(buf[38:]),
		Stream:  id.Stream(binary.BigEndian.Uint32(buf[46:])),
		MediaTS: binary.BigEndian.Uint32(buf[50:]),
	}
	m.TS, m.Body, m.Acks = ts, body, acks
	if m.Kind < KindData || m.Kind > kindMax {
		return fmt.Errorf("%w: %d", ErrBadKind, buf[0])
	}
	off := headerLen
	tsLen := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if tsLen > MaxTimestamp {
		return fmt.Errorf("%w: timestamp %d entries", ErrTooLarge, tsLen)
	}
	if len(buf) < off+4*tsLen+4 {
		return ErrShortMessage
	}
	if a != nil && cap(m.TS) < tsLen {
		m.TS = carve(&a.ts, tsLen, arenaTS)
	}
	for i := 0; i < tsLen; i++ {
		m.TS = append(m.TS, binary.BigEndian.Uint32(buf[off:]))
		off += 4
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if bodyLen > MaxBody {
		return fmt.Errorf("%w: body %d bytes", ErrTooLarge, bodyLen)
	}
	if len(buf) < off+bodyLen {
		return ErrShortMessage
	}
	if a != nil && cap(m.Body) < bodyLen {
		m.Body = carve(&a.body, bodyLen, arenaBytes)
	}
	m.Body = append(m.Body, buf[off:off+bodyLen]...)
	off += bodyLen
	if m.Flags&FlagPiggyAck != 0 {
		var n int
		var err error
		m.Acks, n, err = appendAckVector(m.Acks, buf[off:], a)
		if err != nil {
			return fmt.Errorf("piggyback acks: %w", err)
		}
		off += n
	}
	return nil
}

// String renders a compact human-readable form for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s from=%s grp=%s view=%s sender=%s seq=%d aux=%d body=%dB",
		m.Kind, m.From, m.Group, m.View, m.Sender, m.Seq, m.Aux, len(m.Body))
}
