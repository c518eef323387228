package experiments

import (
	"fmt"
	"slices"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
)

// AckEngine is the positive-acknowledgment baseline the NACK design is
// evaluated against (the T-A2 ablation): each receiver unicasts a
// cumulative ACK to the sender after every delivery progression, and the
// sender retransmits messages unacknowledged within the retransmission
// timeout. The well-known cost is ACK implosion — per multicast the
// sender processes one ACK from every receiver, so sender-side control
// traffic grows linearly with group size even on a loss-free network —
// which is exactly what the ablation measures.
//
// Delivery is per-sender FIFO. AckEngine implements the same Handler
// shape as rmcast.Engine, takes its Config and is driven the same way.
type AckEngine struct {
	env proto.Env
	cfg rmcast.Config

	view member.View

	// Sending state.
	nextSend uint64
	unacked  map[uint64]*pendingSend // my messages not yet acked by all

	// Receiving state: per-sender contiguity.
	peers map[id.Node]*ackPeer

	counters rmcast.Counters
}

// ackPeer tracks the stream from one sender: the lowest sequence number
// not yet contiguously received and the out-of-order messages above it.
type ackPeer struct {
	next uint64
	buf  map[uint64]*wire.Message
}

// pendingSend is one of this sender's messages awaiting full
// acknowledgment.
type pendingSend struct {
	msg    *wire.Message
	acked  map[id.Node]bool
	sentAt time.Time
}

var _ proto.Handler = (*AckEngine)(nil)

// NewAck returns an ACK-based multicast engine with no view. Only the
// FIFO ordering is supported; Config.Ordering is ignored.
func NewAck(env proto.Env, cfg rmcast.Config) *AckEngine {
	if cfg.ResendAfter <= 0 {
		cfg.ResendAfter = rmcast.DefaultResendAfter
	}
	return &AckEngine{
		env:     env,
		cfg:     cfg,
		unacked: make(map[uint64]*pendingSend),
		peers:   make(map[id.Node]*ackPeer),
	}
}

// Counters returns a copy of the protocol event counters.
func (e *AckEngine) Counters() rmcast.Counters { return e.counters }

// SetView installs a new view, resetting per-view state.
func (e *AckEngine) SetView(v member.View) {
	e.view = v
	e.nextSend = 0
	e.unacked = make(map[uint64]*pendingSend)
	e.peers = make(map[id.Node]*ackPeer)
}

// MulticastStream is Multicast: the baseline carries no stream labels.
func (e *AckEngine) MulticastStream(_ id.Stream, payload []byte) error {
	return e.Multicast(payload)
}

// Multicast sends payload to the current view and tracks it until every
// member acknowledges.
func (e *AckEngine) Multicast(payload []byte) error {
	if e.view.ID == 0 || !e.view.Contains(e.env.Self()) {
		return rmcast.ErrNoView
	}
	if len(payload) > wire.MaxBody {
		return fmt.Errorf("%w: %d bytes", rmcast.ErrPayloadTooLarge, len(payload))
	}
	e.nextSend++
	msg := &wire.Message{
		Kind:   wire.KindData,
		Group:  e.cfg.Group,
		View:   e.view.ID,
		Sender: e.env.Self(),
		Seq:    e.nextSend,
		Body:   append([]byte(nil), payload...),
	}
	pend := &pendingSend{
		msg:    msg,
		acked:  map[id.Node]bool{e.env.Self(): true},
		sentAt: e.env.Now(),
	}
	e.unacked[msg.Seq] = pend
	e.counters.Sent++
	for _, m := range e.view.Members {
		if m == e.env.Self() {
			continue
		}
		cp := *msg
		e.env.Send(m, &cp)
	}
	e.receive(msg) // local FIFO delivery
	return nil
}

// OnMessage handles data, retransmissions and acknowledgments.
func (e *AckEngine) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Group != e.cfg.Group || msg.View != e.view.ID || e.view.ID == 0 {
		return
	}
	switch msg.Kind {
	case wire.KindData, wire.KindRetrans:
		if msg.Kind == wire.KindRetrans {
			e.counters.Retransmits++
		}
		before := e.ackFor(msg.Sender)
		e.receive(msg)
		// Cumulative ACK whenever the contiguous prefix advanced (and
		// also for duplicates, so a lost ACK gets repaired).
		if after := e.ackFor(msg.Sender); after != before || msg.Seq <= before {
			e.env.Send(msg.Sender, &wire.Message{
				Kind:   wire.KindAck,
				Group:  e.cfg.Group,
				View:   e.view.ID,
				Sender: msg.Sender,
				Seq:    e.ackFor(msg.Sender),
			})
		}
	case wire.KindAck:
		e.onAck(from, msg.Seq)
	}
}

// ackFor returns the cumulative delivered prefix for a sender.
func (e *AckEngine) ackFor(sender id.Node) uint64 {
	st, ok := e.peers[sender]
	if !ok {
		return 0
	}
	return st.next - 1
}

// receive runs per-sender FIFO contiguity and delivers.
func (e *AckEngine) receive(msg *wire.Message) {
	st, ok := e.peers[msg.Sender]
	if !ok {
		st = &ackPeer{next: 1, buf: make(map[uint64]*wire.Message)}
		e.peers[msg.Sender] = st
	}
	switch {
	case msg.Seq < st.next:
		e.counters.Duplicates++
	case msg.Seq == st.next:
		e.deliverAck(msg)
		st.next++
		for {
			nxt, ok := st.buf[st.next]
			if !ok {
				break
			}
			delete(st.buf, st.next)
			e.deliverAck(nxt)
			st.next++
		}
	default:
		if _, dup := st.buf[msg.Seq]; dup {
			e.counters.Duplicates++
			return
		}
		st.buf[msg.Seq] = msg
	}
}

func (e *AckEngine) deliverAck(msg *wire.Message) {
	e.counters.Delivered++
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(rmcast.Delivery{
			Group:   msg.Group,
			Sender:  msg.Sender,
			Seq:     msg.Seq,
			View:    msg.View,
			Payload: msg.Body,
		})
	}
}

// onAck records a receiver's cumulative acknowledgment of our stream.
func (e *AckEngine) onAck(from id.Node, upTo uint64) {
	for seq, pend := range e.unacked {
		if seq > upTo {
			continue
		}
		pend.acked[from] = true
		done := true
		for _, m := range e.view.Members {
			if !pend.acked[m] {
				done = false
				break
			}
		}
		if done {
			delete(e.unacked, seq)
		}
	}
}

// OnTick retransmits timed-out messages to the members that have not
// acknowledged them, in sequence order so a seeded run sends the same
// datagrams every time.
func (e *AckEngine) OnTick(now time.Time) {
	if e.view.ID == 0 {
		return
	}
	var due []uint64
	for seq, pend := range e.unacked {
		if now.Sub(pend.sentAt) >= e.cfg.ResendAfter {
			due = append(due, seq)
		}
	}
	slices.Sort(due)
	for _, seq := range due {
		pend := e.unacked[seq]
		pend.sentAt = now
		for _, m := range e.view.Members {
			if pend.acked[m] {
				continue
			}
			r := *pend.msg
			r.Kind = wire.KindRetrans
			e.env.Send(m, &r)
			e.counters.NacksServed++
		}
	}
}

// Outstanding returns how many of this sender's messages still await
// full acknowledgment (for tests and GC verification).
func (e *AckEngine) Outstanding() int { return len(e.unacked) }
