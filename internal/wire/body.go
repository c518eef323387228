package wire

import (
	"encoding/binary"
	"fmt"

	"scalamedia/internal/id"
)

// Body payload helpers. Several protocol messages carry structured bodies:
// membership messages carry node lists, stability messages carry per-sender
// acknowledgment vectors. These helpers keep the encoding in one place.

// MaxListEntries bounds the element count of any encoded list body.
const MaxListEntries = 65536

// MaxAddrLen bounds one encoded transport address string. Addresses are
// host:port strings; 255 bytes covers any textual IPv6 address with room
// to spare.
const MaxAddrLen = 255

// appendAddr appends one length-prefixed address string to dst,
// truncating to MaxAddrLen.
func appendAddr(dst []byte, addr string) []byte {
	if len(addr) > MaxAddrLen {
		addr = addr[:MaxAddrLen]
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(addr)))
	dst = append(dst, l[:]...)
	return append(dst, addr...)
}

// decodeAddr parses one length-prefixed address string from buf and
// returns it and the number of bytes consumed.
func decodeAddr(buf []byte) (string, int, error) {
	if len(buf) < 2 {
		return "", 0, ErrShortMessage
	}
	l := int(binary.BigEndian.Uint16(buf))
	if l > MaxAddrLen {
		return "", 0, fmt.Errorf("%w: address %d bytes", ErrTooLarge, l)
	}
	if len(buf) < 2+l {
		return "", 0, ErrShortMessage
	}
	return string(buf[2 : 2+l]), 2 + l, nil
}

// AppendJoinBody appends the payload of a KindJoinReq: the joiner's
// advertised transport address, so the coordinator can reach a joiner it
// has no static peer entry for. An empty address is valid — the
// coordinator then relies on transport-level return-address learning.
func AppendJoinBody(dst []byte, addr string) []byte {
	return appendAddr(dst, addr)
}

// DecodeJoinBody parses a KindJoinReq payload. An empty body decodes as
// an empty address, so address-less join requests stay valid.
func DecodeJoinBody(buf []byte) (string, error) {
	if len(buf) == 0 {
		return "", nil
	}
	addr, _, err := decodeAddr(buf)
	if err != nil {
		return "", fmt.Errorf("join body: %w", err)
	}
	return addr, nil
}

// AppendNodeList appends a length-prefixed list of node IDs to dst.
func AppendNodeList(dst []byte, nodes []id.Node) []byte {
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(nodes)))
	dst = append(dst, n[:4]...)
	for _, nd := range nodes {
		binary.BigEndian.PutUint64(n[:], uint64(nd))
		dst = append(dst, n[:]...)
	}
	return dst
}

// DecodeNodeList parses a node list from buf and returns the list and the
// number of bytes consumed.
func DecodeNodeList(buf []byte) ([]id.Node, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrShortMessage
	}
	count := int(binary.BigEndian.Uint32(buf))
	if count > MaxListEntries {
		return nil, 0, fmt.Errorf("%w: node list %d entries", ErrTooLarge, count)
	}
	need := 4 + 8*count
	if len(buf) < need {
		return nil, 0, ErrShortMessage
	}
	nodes := make([]id.Node, count)
	off := 4
	for i := range nodes {
		nodes[i] = id.Node(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	return nodes, need, nil
}

// AckEntry is one element of a stability vector: the highest contiguously
// delivered sequence number this receiver has seen from Sender.
type AckEntry struct {
	Sender id.Node
	Seq    uint64
}

// AppendAckVector appends a length-prefixed stability vector to dst.
func AppendAckVector(dst []byte, acks []AckEntry) []byte {
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(acks)))
	dst = append(dst, n[:4]...)
	for _, a := range acks {
		binary.BigEndian.PutUint64(n[:], uint64(a.Sender))
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint64(n[:], a.Seq)
		dst = append(dst, n[:]...)
	}
	return dst
}

// DecodeAckVector parses a stability vector from buf and returns it and the
// number of bytes consumed.
func DecodeAckVector(buf []byte) ([]AckEntry, int, error) {
	return appendAckVector(nil, buf, nil)
}

// appendAckVector parses a stability vector from buf into dst (reusing its
// capacity, else carving from a non-nil arena) and returns the vector and
// the number of bytes consumed.
func appendAckVector(dst []AckEntry, buf []byte, a *Arena) ([]AckEntry, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrShortMessage
	}
	count := int(binary.BigEndian.Uint32(buf))
	if count > MaxListEntries {
		return nil, 0, fmt.Errorf("%w: ack vector %d entries", ErrTooLarge, count)
	}
	need := 4 + 16*count
	if len(buf) < need {
		return nil, 0, ErrShortMessage
	}
	if a != nil && cap(dst) < count {
		dst = carve(&a.acks, count, arenaAcks)
	}
	off := 4
	for i := 0; i < count; i++ {
		dst = append(dst, AckEntry{
			Sender: id.Node(binary.BigEndian.Uint64(buf[off:])),
			Seq:    binary.BigEndian.Uint64(buf[off+8:]),
		})
		off += 16
	}
	return dst, need, nil
}

// NackRange is one element of a batched retransmission request: the
// receiver is missing [From, To] of Sender's stream. A range with
// Sender == 0 (id.None) requests total-order slot assignments from slot
// From upward instead.
type NackRange struct {
	Sender   id.Node
	From, To uint64
}

// AppendNackRanges appends a length-prefixed NACK-range list to dst; it is
// the body of a KindNackBatch message.
func AppendNackRanges(dst []byte, ranges []NackRange) []byte {
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(ranges)))
	dst = append(dst, n[:4]...)
	for _, r := range ranges {
		binary.BigEndian.PutUint64(n[:], uint64(r.Sender))
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint64(n[:], r.From)
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint64(n[:], r.To)
		dst = append(dst, n[:]...)
	}
	return dst
}

// DecodeNackRanges parses a NACK-range list from buf and returns it and
// the number of bytes consumed.
func DecodeNackRanges(buf []byte) ([]NackRange, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrShortMessage
	}
	count := int(binary.BigEndian.Uint32(buf))
	if count > MaxListEntries {
		return nil, 0, fmt.Errorf("%w: nack batch %d entries", ErrTooLarge, count)
	}
	need := 4 + 24*count
	if len(buf) < need {
		return nil, 0, ErrShortMessage
	}
	ranges := make([]NackRange, count)
	off := 4
	for i := range ranges {
		ranges[i].Sender = id.Node(binary.BigEndian.Uint64(buf[off:]))
		ranges[i].From = binary.BigEndian.Uint64(buf[off+8:])
		ranges[i].To = binary.BigEndian.Uint64(buf[off+16:])
		off += 24
	}
	return ranges, need, nil
}

// OrderRange is one pipelined sequencer decision: slots
// [SlotFrom, SlotFrom+Count) are assigned, in order, to Sender's
// multicasts [SeqFrom, SeqFrom+Count). Ranges are immutable announcement
// units — recovery replies re-serve the exact units originally flushed —
// so admission can deduplicate on SlotFrom alone.
type OrderRange struct {
	SlotFrom uint64
	Sender   id.Node
	SeqFrom  uint64
	Count    uint32
}

// orderRangeWidth is the encoded width of one KindOrderRange body entry.
const orderRangeWidth = 8 + 8 + 8 + 4 // slotFrom|sender|seqFrom|count

// AppendOrderRanges appends the body of a KindOrderRange message to dst:
// a length-prefixed OrderRange list.
func AppendOrderRanges(dst []byte, ranges []OrderRange) []byte {
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(len(ranges)))
	dst = append(dst, n[:4]...)
	for _, r := range ranges {
		binary.BigEndian.PutUint64(n[:], r.SlotFrom)
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint64(n[:], uint64(r.Sender))
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint64(n[:], r.SeqFrom)
		dst = append(dst, n[:]...)
		binary.BigEndian.PutUint32(n[:4], r.Count)
		dst = append(dst, n[:4]...)
	}
	return dst
}

// DecodeOrderRanges parses a KindOrderRange body.
func DecodeOrderRanges(buf []byte) ([]OrderRange, error) {
	return AppendDecodedOrderRanges(nil, buf)
}

// AppendDecodedOrderRanges is DecodeOrderRanges appending into caller
// scratch (reusing capacity), so a steady-state decode allocates nothing.
// The list is the whole body: bytes after it are an error.
func AppendDecodedOrderRanges(rs []OrderRange, buf []byte) ([]OrderRange, error) {
	if len(buf) < 4 {
		return nil, ErrShortMessage
	}
	count := int(binary.BigEndian.Uint32(buf))
	if count > MaxListEntries {
		return nil, fmt.Errorf("%w: order ranges %d entries", ErrTooLarge, count)
	}
	switch need := 4 + orderRangeWidth*count; {
	case len(buf) < need:
		return nil, ErrShortMessage
	case len(buf) > need:
		return nil, fmt.Errorf("%w: order ranges: %d bytes after the list", ErrTooLarge, len(buf)-need)
	}
	off := 4
	for i := 0; i < count; i++ {
		rs = append(rs, OrderRange{
			SlotFrom: binary.BigEndian.Uint64(buf[off:]),
			Sender:   id.Node(binary.BigEndian.Uint64(buf[off+8:])),
			SeqFrom:  binary.BigEndian.Uint64(buf[off+16:]),
			Count:    binary.BigEndian.Uint32(buf[off+24:]),
		})
		off += orderRangeWidth
	}
	return rs, nil
}

// ViewBody is the payload of JoinAck, ViewPropose and ViewCommit messages:
// a view number plus the ordered member list, optionally annotated with
// each member's transport address so admitted members can reach each
// other without out-of-band configuration.
type ViewBody struct {
	View    id.View
	Members []id.Node
	// Addrs, when non-empty, holds exactly one address per member,
	// aligned with Members; an empty string means no address is known
	// for that member. The address section is always present on the
	// wire (a zero count when Addrs is empty), so every truncated
	// encoding is rejected rather than silently read as address-less.
	Addrs []string
}

// AppendViewBody appends the encoded view body to dst. Addrs must be
// empty or exactly as long as Members; a mismatched slice is encoded as
// empty rather than producing an undecodable payload.
func AppendViewBody(dst []byte, v ViewBody) []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(v.View))
	dst = append(dst, n[:]...)
	dst = AppendNodeList(dst, v.Members)
	addrs := v.Addrs
	if len(addrs) != len(v.Members) {
		addrs = nil
	}
	binary.BigEndian.PutUint32(n[:4], uint32(len(addrs)))
	dst = append(dst, n[:4]...)
	for _, a := range addrs {
		dst = appendAddr(dst, a)
	}
	return dst
}

// DecodeViewBody parses a view body from buf.
func DecodeViewBody(buf []byte) (ViewBody, error) {
	if len(buf) < 8 {
		return ViewBody{}, ErrShortMessage
	}
	v := ViewBody{View: id.View(binary.BigEndian.Uint64(buf))}
	members, n, err := DecodeNodeList(buf[8:])
	if err != nil {
		return ViewBody{}, fmt.Errorf("view body: %w", err)
	}
	v.Members = members
	rest := buf[8+n:]
	if len(rest) < 4 {
		return ViewBody{}, fmt.Errorf("view body addrs: %w", ErrShortMessage)
	}
	count := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if count == 0 {
		return v, nil
	}
	if count != len(members) {
		return ViewBody{}, fmt.Errorf("%w: view body has %d addrs for %d members",
			ErrTooLarge, count, len(members))
	}
	v.Addrs = make([]string, count)
	for i := range v.Addrs {
		a, used, err := decodeAddr(rest)
		if err != nil {
			return ViewBody{}, fmt.Errorf("view body addr %d: %w", i, err)
		}
		v.Addrs[i] = a
		rest = rest[used:]
	}
	return v, nil
}
