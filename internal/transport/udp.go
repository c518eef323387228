package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// maxDatagram is the largest UDP payload the endpoint sends or receives.
// Messages must fit in one datagram; the media layer fragments above this.
const maxDatagram = 64 * 1024

// DefaultBatch is the number of datagrams one recvmmsg/sendmmsg syscall
// moves at most.
const DefaultBatch = 32

// socketBuffer is the SO_RCVBUF/SO_SNDBUF size requested for every UDP
// endpoint. Kernel skb truesize (~2KB per small datagram) means the
// ~200KB Linux default absorbs under a hundred in-flight datagrams —
// less than three coalesced batches of media traffic.
const socketBuffer = 4 * 1024 * 1024

// UDPOption configures a UDPEndpoint at listen time.
type UDPOption func(*UDPEndpoint)

// WithBatchSize sets the maximum datagrams coalesced into one
// recvmmsg/sendmmsg syscall (default DefaultBatch). A size of one
// disables batched syscalls entirely and selects the portable
// single-datagram path — the two paths are byte-identical on the wire,
// so this is the ablation/fallback knob, not a behaviour change.
func WithBatchSize(n int) UDPOption {
	return func(e *UDPEndpoint) {
		if n > 0 {
			e.batch = n
		}
	}
}

// WithDecodeWorkers does nothing: the goroutine that reads the socket
// decodes every datagram itself, in arrival order.
//
// Deprecated: kept only so existing callers compile.
func WithDecodeWorkers(int) UDPOption { return func(*UDPEndpoint) {} }

// peerEntry is one peer-table row. addr is what the send path writes to;
// ap is the same address as a comparable value, so the receive path can
// detect a changed source with one struct compare and no allocation.
// Static entries come from AddPeer (operator configuration) and are never
// displaced by learned traffic; learned entries refresh freely as the
// peer's observed source address moves.
type peerEntry struct {
	addr   *net.UDPAddr
	ap     netip.AddrPort
	static bool
}

// peerMap is the copy-on-write peer address table. Readers load the
// current map through an atomic pointer and never lock; updates copy.
type peerMap = map[id.Node]peerEntry

// outDatagram is one encoded, address-resolved datagram waiting in the
// send queue for the next Flush.
type outDatagram struct {
	buf  *[]byte
	addr *net.UDPAddr
}

// UDPEndpoint is an Endpoint over a real UDP socket. Peers are registered
// explicitly with AddPeer (the architecture's deployments use static or
// session-distributed address maps; there is no discovery protocol at this
// layer). UDPEndpoint is safe for concurrent use.
//
// The receive path is one goroutine, started when a consumer attaches
// (SetReceiver or the first Recv). It reads a batch off the socket
// (recvmmsg on Linux, one recvfrom elsewhere), decodes it into the
// endpoint's wire.Arena, and hands the batch on: to the receiver in one
// call, or message by message into the Recv queue. It never drops what
// it read: it waits for the receiver to return or for room in the queue
// (transport.rx_stalls counts those waits), so the kernel socket buffer
// is the only place a datagram can be lost to overload. The send path
// queues datagrams per endpoint and drains the queue in one sendmmsg per
// Flush (see BatchSender); plain Send still transmits immediately.
type UDPEndpoint struct {
	metricsRef
	self id.Node
	conn *net.UDPConn
	recv chan Inbound

	batch int
	mb    *udpBatcher // nil: portable single-datagram syscalls

	peers  atomic.Pointer[peerMap]
	peerMu sync.Mutex // serializes AddPeer copy-on-write updates

	closed  atomic.Bool
	closing chan struct{} // closed by Close; releases a reader waiting on a full queue

	sendMu sync.Mutex
	sendQ  []outDatagram

	attach     sync.Once       // starts the reader for the first consumer; Close retires it unstarted
	receiver   func([]Inbound) // the push consumer; nil when Recv attached
	readerDone chan struct{}   // closed when the reader goroutine exits
}

var (
	_ Endpoint     = (*UDPEndpoint)(nil)
	_ BatchSender  = (*UDPEndpoint)(nil)
	_ Reachability = (*UDPEndpoint)(nil)
	_ AddrLearner  = (*UDPEndpoint)(nil)
	_ Pusher       = (*UDPEndpoint)(nil)
)

// ListenUDP opens a UDP endpoint for node on the given local address
// (for example "127.0.0.1:0").
func ListenUDP(node id.Node, addr string, opts ...UDPOption) (*UDPEndpoint, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", addr, err)
	}
	// Default socket buffers (~200KB on Linux) hold only a few dozen
	// datagrams of kernel skb truesize; a coalesced media burst
	// overflows them long before payload bytes suggest it should. Ask
	// for enough to absorb several full send batches on each side;
	// best-effort, the kernel clamps to its rmem_max/wmem_max.
	_ = conn.SetReadBuffer(socketBuffer)
	_ = conn.SetWriteBuffer(socketBuffer)
	e := &UDPEndpoint{
		self:       node,
		conn:       conn,
		recv:       make(chan Inbound, RecvQueue),
		batch:      DefaultBatch,
		closing:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	pm := make(peerMap)
	e.peers.Store(&pm)
	e.mb = newBatcher(conn, e.batch)
	return e, nil
}

// BatchIO reports whether the endpoint uses batched recvmmsg/sendmmsg
// syscalls (true on Linux unless WithBatchSize(1) selected the portable
// path).
func (e *UDPEndpoint) BatchIO() bool { return e.mb != nil }

// LocalAddr returns the bound socket address, useful with port 0.
func (e *UDPEndpoint) LocalAddr() *net.UDPAddr {
	addr, _ := e.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// AddPeer registers the UDP address for a remote node as a static entry:
// it overwrites anything previously known (learned or static) and is
// never displaced by learned traffic afterwards. The peer table is
// copy-on-write: concurrent senders read it with one atomic load and
// never contend on a lock.
func (e *UDPEndpoint) AddPeer(node id.Node, addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("resolve peer %q: %w", addr, err)
	}
	e.upsertPeer(node, uaddr, true)
	return nil
}

// LearnPeer registers an address for a node learned from the protocol
// (the membership layer's address exchange). Unlike AddPeer the entry is
// advisory: it never overrides a static entry, and later traffic from
// the node may refresh it.
func (e *UDPEndpoint) LearnPeer(node id.Node, addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("resolve peer %q: %w", addr, err)
	}
	e.upsertPeer(node, uaddr, false)
	return nil
}

// upsertPeer installs one peer-table entry under the copy-on-write lock.
// A non-static update leaves an existing static entry untouched.
func (e *UDPEndpoint) upsertPeer(node id.Node, uaddr *net.UDPAddr, static bool) {
	ap := uaddr.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	e.peerMu.Lock()
	defer e.peerMu.Unlock()
	old := *e.peers.Load()
	if cur, ok := old[node]; ok && !static && (cur.static || cur.ap == ap) {
		return
	}
	next := make(peerMap, len(old)+1)
	for n, a := range old {
		next[n] = a
	}
	next[node] = peerEntry{addr: uaddr, ap: ap, static: static}
	e.peers.Store(&next)
}

// learnSource records the observed source address of an inbound datagram
// for its wire-level sender. The fast path — known peer, unchanged
// address — is one atomic load, one map lookup and one comparison, with
// no allocation; only a new or moved peer takes the lock and copies the
// table. Static entries win: a spoofed datagram cannot repoint a
// configured peer, and a learned entry flaps only as often as the peer's
// genuine source address does.
func (e *UDPEndpoint) learnSource(node id.Node, ap netip.AddrPort) {
	if node == id.None || !ap.IsValid() {
		return
	}
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if cur, ok := (*e.peers.Load())[node]; ok && (cur.static || cur.ap == ap) {
		return
	}
	e.upsertPeer(node, net.UDPAddrFromAddrPort(ap), false)
	if m := e.load(); m != nil {
		m.addrLearned.Inc()
	}
}

// CanReach reports whether the endpoint holds an address (static or
// learned) for the node.
func (e *UDPEndpoint) CanReach(to id.Node) bool {
	_, ok := (*e.peers.Load())[to]
	return ok
}

// lookupPeer resolves a node to its registered address without locking.
func (e *UDPEndpoint) lookupPeer(to id.Node) (*net.UDPAddr, error) {
	if ent, ok := (*e.peers.Load())[to]; ok {
		return ent.addr, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, to)
}

// Self returns the local node ID.
func (e *UDPEndpoint) Self() id.Node { return e.self }

// Recv returns the receive queue. The first call attaches the queue as
// the endpoint's consumer and starts reading, unless SetReceiver got
// there first; the queue then stays empty until Close closes it.
func (e *UDPEndpoint) Recv() <-chan Inbound {
	e.attach.Do(func() { go e.readLoop() })
	return e.recv
}

// SetReceiver attaches fn as the endpoint's consumer and starts reading
// (see Pusher). fn runs on the reading goroutine, once per socket batch.
func (e *UDPEndpoint) SetReceiver(fn func([]Inbound)) bool {
	attached := false
	e.attach.Do(func() {
		e.receiver, attached = fn, true
		go e.readLoop()
	})
	return attached
}

// encode resolves the destination and encodes msg into a pooled buffer.
// On success the caller owns the returned buffer.
func (e *UDPEndpoint) encode(to id.Node, msg *wire.Message) (*[]byte, *net.UDPAddr, error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	addr, err := e.lookupPeer(to)
	if err != nil {
		return nil, nil, err
	}
	msg.From = e.self
	bp := wire.GetBuf()
	*bp = msg.Encode((*bp)[:0])
	if len(*bp) > maxDatagram {
		n := len(*bp)
		wire.PutBuf(bp)
		return nil, nil, fmt.Errorf("transport: message %d bytes exceeds datagram limit %d",
			n, maxDatagram)
	}
	return bp, addr, nil
}

// Send transmits one message as a single datagram, immediately.
func (e *UDPEndpoint) Send(to id.Node, msg *wire.Message) error {
	bp, addr, err := e.encode(to, msg)
	if err != nil {
		return err
	}
	defer wire.PutBuf(bp)
	if _, err := e.conn.WriteToUDP(*bp, addr); err != nil {
		return fmt.Errorf("udp write to %s: %w", to, err)
	}
	if m := e.load(); m != nil {
		m.sent.Inc()
		m.bytesSent.Add(uint64(len(*bp)))
		m.syscallsTx.Inc()
		m.batchFill.Observe(1)
	}
	return nil
}

// SendBatch queues one message for the next Flush. When the queue
// reaches the batch size it flushes early, so the queue is bounded by
// one syscall's worth of datagrams.
func (e *UDPEndpoint) SendBatch(to id.Node, msg *wire.Message) error {
	bp, addr, err := e.encode(to, msg)
	if err != nil {
		return err
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	if e.closed.Load() {
		wire.PutBuf(bp)
		return ErrClosed
	}
	e.sendQ = append(e.sendQ, outDatagram{buf: bp, addr: addr})
	if len(e.sendQ) >= e.batch {
		return e.flushLocked()
	}
	return nil
}

// Flush transmits every queued datagram, coalescing into as few
// syscalls as the platform allows.
func (e *UDPEndpoint) Flush() error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	return e.flushLocked()
}

// flushLocked drains the send queue; callers hold sendMu. Every pooled
// buffer is released before return, on success and on every error path.
func (e *UDPEndpoint) flushLocked() error {
	q := e.sendQ
	if len(q) == 0 {
		return nil
	}
	m := e.load()
	var err error
	if e.closed.Load() {
		err = ErrClosed
	} else if e.mb != nil {
		var sent int
		var fills []float64
		sent, fills, err = e.mb.sendBatch(q)
		if m != nil {
			m.sent.Add(uint64(sent))
			m.syscallsTx.Add(uint64(len(fills)))
			for _, f := range fills {
				m.batchFill.Observe(f)
			}
			for _, d := range q[:sent] {
				m.bytesSent.Add(uint64(len(*d.buf)))
			}
		}
	} else {
		for _, d := range q {
			if _, werr := e.conn.WriteToUDP(*d.buf, d.addr); werr != nil {
				if err == nil {
					err = werr
				}
				continue
			}
			if m != nil {
				m.sent.Inc()
				m.bytesSent.Add(uint64(len(*d.buf)))
				m.syscallsTx.Inc()
				m.batchFill.Observe(1)
			}
		}
	}
	for i := range q {
		wire.PutBuf(q[i].buf)
		q[i] = outDatagram{} // drop references so the pool can recycle
	}
	e.sendQ = q[:0]
	return err
}

// Close shuts the socket and waits for the reader goroutine to exit; a
// receiver call in progress runs to its end first. Close is idempotent.
func (e *UDPEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.attach.Do(func() { close(e.readerDone) }) // no consumer: no reader
	// Release the reader first: waiting on a full queue that nobody
	// drains, it would otherwise never observe the socket closing.
	close(e.closing)
	err := e.conn.Close()
	<-e.readerDone
	// Drop anything still queued for send; the buffers go back to the
	// pool, the datagrams are lost exactly as the network could lose
	// them.
	e.sendMu.Lock()
	for i := range e.sendQ {
		wire.PutBuf(e.sendQ[i].buf)
		e.sendQ[i] = outDatagram{}
	}
	e.sendQ = e.sendQ[:0]
	e.sendMu.Unlock()
	close(e.recv)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("close udp socket: %w", err)
	}
	return nil
}

// readLoop pumps datagrams from the socket to the consumer until the
// socket closes.
func (e *UDPEndpoint) readLoop() {
	defer close(e.readerDone)
	deliver := e.receiver
	if deliver == nil {
		deliver = e.queue
	}
	n := e.batch
	if e.mb == nil {
		n = 1
	}
	bufs := make([]*[]byte, n)
	for i := range bufs {
		b := make([]byte, maxDatagram)
		bufs[i] = &b
	}
	addrs := make([]netip.AddrPort, n)
	ins := make([]Inbound, 0, n)
	var arena wire.Arena
	for {
		for _, bp := range bufs {
			*bp = (*bp)[:maxDatagram]
		}
		got, err := e.read(bufs, addrs)
		if err != nil {
			return // socket closed or fatally broken
		}
		m := e.load()
		if m != nil {
			m.syscallsRx.Inc()
			m.batchFill.Observe(float64(got))
		}
		for i, bp := range bufs[:got] {
			msg, err := arena.Decode(*bp)
			if err != nil {
				if m != nil {
					m.decodeErrs.Inc()
				}
				continue // malformed datagrams vanish
			}
			// A datagram that decoded carries an authenticated-enough
			// claim of its sender; remember where it came from so
			// replies work even when the peer was never configured.
			e.learnSource(msg.From, addrs[i])
			if m != nil {
				m.recvd.Inc()
				m.bytesRecvd.Add(uint64(len(*bp)))
			}
			ins = append(ins, Inbound{From: msg.From, Msg: msg})
		}
		if len(ins) > 0 {
			deliver(ins)
		}
		clear(ins)
		ins = ins[:0]
	}
}

// read fills bufs from the socket: one recvmmsg batch, or one datagram on
// the portable path.
func (e *UDPEndpoint) read(bufs []*[]byte, addrs []netip.AddrPort) (int, error) {
	if e.mb != nil {
		return e.mb.recvBatch(bufs, addrs)
	}
	// ReadFromUDPAddrPort keeps the source address on the stack as a
	// comparable netip.AddrPort; ReadFromUDP would allocate a
	// *net.UDPAddr per datagram.
	n, ap, err := e.conn.ReadFromUDPAddrPort(*bufs[0])
	if err != nil {
		return 0, err
	}
	*bufs[0], addrs[0] = (*bufs[0])[:n], ap
	return 1, nil
}

// queue is the Recv consumer: it moves a decoded batch into the receive
// queue, waiting when the queue is full, so that a burst longer than the
// queue backs up into the socket buffer and overflows, if at all, there,
// where the kernel counts it. The wait is counted (rx_stalls) and
// abandoned on Close, which discards the rest of the batch (queue_drops).
func (e *UDPEndpoint) queue(ins []Inbound) {
	for i, in := range ins {
		select {
		case e.recv <- in:
			continue
		default:
		}
		m := e.load()
		if m != nil {
			m.rxStalls.Inc()
		}
		select {
		case e.recv <- in:
		case <-e.closing:
			if m != nil {
				m.queueDrops.Add(uint64(len(ins) - i))
			}
			return
		}
	}
}
