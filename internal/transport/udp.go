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

// Batched-I/O defaults. DefaultBatch is the number of datagrams one
// recvmmsg/sendmmsg syscall moves at most; DefaultDecodeWorkers is the
// size of the decode pool between the socket reader and the receive
// queue. Two workers keep decode off the reader's critical path without
// oversubscribing small hosts; one worker preserves arrival order.
const (
	DefaultBatch         = 32
	DefaultDecodeWorkers = 2
)

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

// WithDecodeWorkers sets the number of goroutines decoding raw datagrams
// into wire messages (default DefaultDecodeWorkers). More than one
// worker can reorder datagrams — including two from the same peer — on
// the way to Recv; every protocol layer already tolerates UDP
// reordering, but tests that assert exact arrival order should pass 1,
// which preserves the socket's delivery order end to end.
func WithDecodeWorkers(n int) UDPOption {
	return func(e *UDPEndpoint) {
		if n > 0 {
			e.workers = n
		}
	}
}

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

// rawDatagram is one received datagram moving from the socket reader to
// the decode stage, tagged with its kernel-reported source address so
// the decode stage can learn return addresses.
type rawDatagram struct {
	bp   *[]byte
	from netip.AddrPort
}

// UDPEndpoint is an Endpoint over a real UDP socket. Peers are registered
// explicitly with AddPeer (the architecture's deployments use static or
// session-distributed address maps; there is no discovery protocol at this
// layer). UDPEndpoint is safe for concurrent use.
//
// The receive path is a two-stage pipeline: a reader goroutine moves raw
// datagrams off the socket (recvmmsg on Linux, one recvfrom elsewhere)
// into pooled buffers, and a small worker pool decodes them into the
// receive queue. Neither stage drops: the reader waits for the decode
// stage and the decode stage waits for Recv()'s consumer, so the kernel
// socket buffer is the only place a datagram can be lost to overload
// (transport.rx_stalls counts the waits). The send path queues datagrams
// per endpoint and drains the queue in one sendmmsg per Flush (see
// BatchSender); plain Send still transmits immediately.
type UDPEndpoint struct {
	metricsRef
	self id.Node
	conn *net.UDPConn
	recv chan Inbound

	batch   int
	workers int
	mb      *udpBatcher // nil: portable single-datagram syscalls

	peers  atomic.Pointer[peerMap]
	peerMu sync.Mutex // serializes AddPeer copy-on-write updates

	closed  atomic.Bool
	closing chan struct{} // closed by Close; releases receive stages waiting on a full queue

	sendMu sync.Mutex
	sendQ  []outDatagram

	decodeq    chan rawDatagram
	readerDone chan struct{} // closed when the reader goroutine exits
	workerWG   sync.WaitGroup
}

var (
	_ Endpoint     = (*UDPEndpoint)(nil)
	_ BatchSender  = (*UDPEndpoint)(nil)
	_ Reachability = (*UDPEndpoint)(nil)
	_ AddrLearner  = (*UDPEndpoint)(nil)
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
		workers:    DefaultDecodeWorkers,
		closing:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	pm := make(peerMap)
	e.peers.Store(&pm)
	// The decode stage buffers a few syscall batches of raw datagrams;
	// past that the reader waits (see enqueue), so the kernel socket
	// buffer is the receive path's only overflow point. The floor keeps
	// the portable path (batch == 1) from stalling on ordinary bursts.
	depth := 4 * e.batch
	if depth < 4*DefaultBatch {
		depth = 4 * DefaultBatch
	}
	e.decodeq = make(chan rawDatagram, depth)
	e.mb = newBatcher(conn, e.batch)
	for i := 0; i < e.workers; i++ {
		e.workerWG.Add(1)
		go e.decodeLoop()
	}
	go e.readLoop()
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

// Recv returns the receive queue.
func (e *UDPEndpoint) Recv() <-chan Inbound { return e.recv }

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

// Close shuts the socket and waits for the reader and decode goroutines
// to exit. Close is idempotent.
func (e *UDPEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Release the receive stages first: a reader or decode worker waiting
	// on a full queue that nobody drains would otherwise never observe
	// the socket closing.
	close(e.closing)
	err := e.conn.Close()
	<-e.readerDone
	close(e.decodeq)
	e.workerWG.Wait()
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

// rxBuf returns a pooled buffer grown to hold any datagram, with length
// maxDatagram so the whole capacity is readable by the socket layer.
func rxBuf() *[]byte {
	bp := wire.GetBuf()
	if cap(*bp) < maxDatagram {
		*bp = make([]byte, maxDatagram)
	} else {
		*bp = (*bp)[:maxDatagram]
	}
	return bp
}

// enqueue hands v to one of the receive pipeline's queues, waiting when
// the queue is full: datagrams the kernel already accepted are not thrown
// away in user space, so a burst longer than the queues backs up into the
// socket buffer and overflows — if at all — there, where the kernel
// counts it. The wait is counted (rx_stalls) and abandoned on Close, the
// only case in which enqueue reports false and the caller discards v.
func enqueue[T any](e *UDPEndpoint, q chan<- T, v T) bool {
	select {
	case q <- v:
		return true
	default:
	}
	if m := e.load(); m != nil {
		m.rxStalls.Inc()
	}
	select {
	case q <- v:
		return true
	case <-e.closing:
		return false
	}
}

// dispatchRaw hands one raw datagram to the decode stage.
func (e *UDPEndpoint) dispatchRaw(d rawDatagram) {
	if !enqueue(e, e.decodeq, d) {
		wire.PutBuf(d.bp)
		if m := e.load(); m != nil {
			m.rxDropped.Inc()
		}
	}
}

// readLoop pumps raw datagrams from the socket into the decode stage
// until the socket closes.
func (e *UDPEndpoint) readLoop() {
	defer close(e.readerDone)
	if e.mb != nil {
		e.batchReadLoop()
		return
	}
	e.simpleReadLoop()
}

// simpleReadLoop is the portable path: one datagram per syscall.
func (e *UDPEndpoint) simpleReadLoop() {
	for {
		bp := rxBuf()
		// ReadFromUDPAddrPort keeps the source address on the stack as a
		// comparable netip.AddrPort; ReadFromUDP would heap-allocate a
		// *net.UDPAddr per datagram.
		n, ap, err := e.conn.ReadFromUDPAddrPort(*bp)
		if err != nil {
			wire.PutBuf(bp)
			return // socket closed or fatally broken
		}
		if m := e.load(); m != nil {
			m.syscallsRx.Inc()
			m.batchFill.Observe(1)
		}
		*bp = (*bp)[:n]
		e.dispatchRaw(rawDatagram{bp: bp, from: ap})
	}
}

// batchReadLoop reads up to e.batch datagrams per recvmmsg wakeup, each
// into its own pooled buffer. Buffer slots consumed by a batch are
// refilled from the pool before the next syscall; slots the batch did
// not fill are reused as-is, so the steady state allocates nothing.
func (e *UDPEndpoint) batchReadLoop() {
	bufs := make([]*[]byte, e.batch)
	addrs := make([]netip.AddrPort, e.batch)
	defer func() {
		for _, bp := range bufs {
			if bp != nil {
				wire.PutBuf(bp)
			}
		}
	}()
	for {
		for i := range bufs {
			if bufs[i] == nil {
				bufs[i] = rxBuf()
			}
		}
		n, err := e.mb.recvBatch(bufs, addrs)
		if err != nil {
			return // socket closed or fatally broken
		}
		if m := e.load(); m != nil {
			m.syscallsRx.Inc()
			m.batchFill.Observe(float64(n))
		}
		for i := 0; i < n; i++ {
			e.dispatchRaw(rawDatagram{bp: bufs[i], from: addrs[i]})
			bufs[i] = nil
		}
	}
}

// decodeLoop is one decode worker: it turns raw datagrams into pooled
// wire messages and queues them for the protocol stack. Every early
// return releases the pooled buffer and message; once a message is
// queued the stack owns it (engines retain delivered messages in
// history).
func (e *UDPEndpoint) decodeLoop() {
	defer e.workerWG.Done()
	for d := range e.decodeq {
		m := e.load()
		msg := wire.GetMessage()
		err := wire.DecodeInto(msg, *d.bp)
		n := len(*d.bp)
		wire.PutBuf(d.bp)
		if err != nil {
			wire.PutMessage(msg)
			if m != nil {
				m.decodeErrs.Inc()
			}
			continue // malformed datagrams vanish
		}
		// A datagram that decoded carries an authenticated-enough claim of
		// its sender; remember where it came from so replies work even
		// when the peer was never configured.
		e.learnSource(msg.From, d.from)
		if !enqueue(e, e.recv, Inbound{From: msg.From, Msg: msg}) {
			wire.PutMessage(msg)
			if m != nil {
				m.queueDrops.Inc()
			}
			continue
		}
		if m != nil {
			m.recvd.Inc()
			m.bytesRecvd.Add(uint64(n))
		}
	}
}
