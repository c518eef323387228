package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// LinkConfig describes the behaviour of one directed link in the fabric.
// The zero value is a perfect link: no delay, no loss.
type LinkConfig struct {
	// Delay is the base one-way propagation delay.
	Delay time.Duration
	// Jitter is the maximum additional random delay; the actual extra
	// delay is uniform in [0, Jitter].
	Jitter time.Duration
	// Loss is the probability in [0, 1] that a datagram is dropped.
	Loss float64
	// Duplicate is the probability in [0, 1] that a datagram is
	// delivered twice.
	Duplicate float64
}

// Fabric is an in-process network connecting endpoints through channels.
// Datagrams are encoded and decoded through the wire format so endpoints
// never share memory, and each traversal applies the link's delay, jitter,
// loss and duplication. Fabric is safe for concurrent use.
type Fabric struct {
	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[id.Node]*inprocEndpoint
	links     map[linkKey]LinkConfig
	def       LinkConfig
	partition map[id.Node]int // partition group per node; absent = group 0
	closed    bool
	pending   sync.WaitGroup // in-flight delayed deliveries
}

type linkKey struct{ from, to id.Node }

// FabricOption configures a Fabric.
type FabricOption func(*Fabric)

// WithSeed makes the fabric's loss/jitter decisions deterministic.
func WithSeed(seed int64) FabricOption {
	return func(f *Fabric) { f.rng = rand.New(rand.NewSource(seed)) }
}

// WithDefaultLink sets the link configuration used for pairs without an
// explicit SetLink call.
func WithDefaultLink(cfg LinkConfig) FabricOption {
	return func(f *Fabric) { f.def = cfg }
}

// NewFabric returns an empty fabric.
func NewFabric(opts ...FabricOption) *Fabric {
	f := &Fabric{
		rng:       rand.New(rand.NewSource(1)),
		endpoints: make(map[id.Node]*inprocEndpoint),
		links:     make(map[linkKey]LinkConfig),
		partition: make(map[id.Node]int),
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Attach creates an endpoint for node. It fails if the node is already
// attached or the fabric is closed.
func (f *Fabric) Attach(node id.Node) (Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, ok := f.endpoints[node]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, node)
	}
	ep := &inprocEndpoint{
		fabric: f,
		self:   node,
		recv:   make(chan Inbound, RecvQueue),
	}
	f.endpoints[node] = ep
	return ep, nil
}

// SetLink configures the directed link from one node to another.
func (f *Fabric) SetLink(from, to id.Node, cfg LinkConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[linkKey{from, to}] = cfg
}

// SetLinkBoth configures the link in both directions.
func (f *Fabric) SetLinkBoth(a, b id.Node, cfg LinkConfig) {
	f.SetLink(a, b, cfg)
	f.SetLink(b, a, cfg)
}

// Partition splits the network: nodes listed in groups[i] can only reach
// nodes in the same group. Nodes not listed remain in group 0 together.
func (f *Fabric) Partition(groups ...[]id.Node) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partition = make(map[id.Node]int)
	for i, g := range groups {
		for _, n := range g {
			f.partition[n] = i + 1
		}
	}
}

// Heal removes any partition.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partition = make(map[id.Node]int)
}

// Close detaches every endpoint and waits for in-flight deliveries.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	eps := make([]*inprocEndpoint, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	f.pending.Wait()
	for _, ep := range eps {
		ep.closeQueue()
	}
}

// linkFor returns the effective config for a directed pair; callers hold no
// lock.
func (f *Fabric) linkFor(from, to id.Node) LinkConfig {
	if cfg, ok := f.links[linkKey{from, to}]; ok {
		return cfg
	}
	return f.def
}

// sharedBuf is a pooled encode buffer shared by the delayed copies of one
// datagram. The sender holds one reference while scheduling; each delayed
// copy holds one until it fires. The last reference returns the buffer to
// the wire pool.
type sharedBuf struct {
	buf  *[]byte
	refs atomic.Int32
}

var sharedBufPool = sync.Pool{New: func() any { return new(sharedBuf) }}

// getSharedBuf returns a shared buffer holding one reference.
func getSharedBuf() *sharedBuf {
	sb := sharedBufPool.Get().(*sharedBuf)
	sb.buf = wire.GetBuf()
	sb.refs.Store(1)
	return sb
}

func (s *sharedBuf) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	wire.PutBuf(s.buf)
	s.buf = nil
	sharedBufPool.Put(s)
}

// scheduleDelivery registers one delayed copy; the caller has already
// added the copy's reference on sb.
func (f *Fabric) scheduleDelivery(from id.Node, dst *inprocEndpoint, sb *sharedBuf, delay time.Duration) {
	f.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer f.pending.Done()
		defer sb.release()
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return
		}
		deliverNow(from, dst, sb)
	})
}

// deliverNow decodes one copy into the destination's arena and hands it
// to the destination queue, dropping it when the queue is full or the
// endpoint is closed (UDP semantics: a full socket buffer). For
// zero-delay copies this runs on the sender's goroutine, avoiding a
// per-datagram goroutine. Called with no fabric lock held; the
// destination's lock serializes its arena.
func deliverNow(from id.Node, dst *inprocEndpoint, sb *sharedBuf) {
	m := dst.load()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	msg, err := dst.arena.Decode(*sb.buf)
	if err != nil {
		if m != nil {
			m.decodeErrs.Inc()
		}
		return // corrupt datagrams vanish, as on a real network
	}
	if !dst.closed {
		select {
		case dst.recv <- Inbound{From: from, Msg: msg}:
			if m != nil {
				m.recvd.Inc()
				m.bytesRecvd.Add(uint64(len(*sb.buf)))
			}
			return
		default:
		}
	}
	if m != nil {
		m.queueDrops.Inc()
	}
}

// inprocEndpoint is one node's attachment to a Fabric.
type inprocEndpoint struct {
	metricsRef
	fabric *Fabric
	self   id.Node
	recv   chan Inbound

	mu     sync.Mutex // guards closed and arena, and orders sends on recv with its close
	closed bool
	arena  wire.Arena

	sendMu  sync.Mutex
	pending []pendingSend
}

// pendingSend is one encoded datagram queued by SendBatch for the next
// Flush.
type pendingSend struct {
	to id.Node
	sb *sharedBuf
}

var (
	_ Endpoint     = (*inprocEndpoint)(nil)
	_ BatchSender  = (*inprocEndpoint)(nil)
	_ Reachability = (*inprocEndpoint)(nil)
)

func (e *inprocEndpoint) Self() id.Node        { return e.self }
func (e *inprocEndpoint) Recv() <-chan Inbound { return e.recv }

// CanReach reports whether the node is currently attached to the fabric.
// Partitions and lossy links do not count as unreachable: like live UDP,
// the fabric cannot distinguish loss from absence, only a missing
// attachment (no address at all) is definitive.
func (e *inprocEndpoint) CanReach(to id.Node) bool {
	f := e.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.endpoints[to]
	return ok
}

func (e *inprocEndpoint) Send(to id.Node, msg *wire.Message) error {
	sb, err := e.encode(msg)
	if err != nil {
		return err
	}
	return e.transmit(to, sb)
}

// SendBatch encodes the message now (the caller may reuse it) and queues
// the datagram; it traverses the fabric on the next Flush. This mirrors
// the live UDP endpoint: a tick's sends leave together, after the
// handler activation that produced them returns.
func (e *inprocEndpoint) SendBatch(to id.Node, msg *wire.Message) error {
	sb, err := e.encode(msg)
	if err != nil {
		return err
	}
	e.sendMu.Lock()
	e.pending = append(e.pending, pendingSend{to: to, sb: sb})
	e.sendMu.Unlock()
	return nil
}

// Flush sends every queued datagram through the fabric, in queue order.
func (e *inprocEndpoint) Flush() error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	var err error
	for i, p := range e.pending {
		if terr := e.transmit(p.to, p.sb); terr != nil && err == nil {
			err = terr
		}
		e.pending[i] = pendingSend{}
	}
	e.pending = e.pending[:0]
	return err
}

// encode prepares one outgoing datagram in a shared pooled buffer and
// counts it as sent.
func (e *inprocEndpoint) encode(msg *wire.Message) (*sharedBuf, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	msg.From = e.self
	sb := getSharedBuf()
	*sb.buf = msg.Encode((*sb.buf)[:0])
	if m := e.load(); m != nil {
		m.sent.Inc()
		m.bytesSent.Add(uint64(len(*sb.buf)))
	}
	return sb, nil
}

// transmit carries one encoded datagram across the fabric, consuming the
// caller's reference on sb.
func (e *inprocEndpoint) transmit(to id.Node, sb *sharedBuf) error {
	// Decide drops, duplication and delays under the fabric lock, then
	// deliver with no locks held so zero-delay copies can run inline.
	f := e.fabric
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		sb.release()
		return ErrClosed
	}
	dst, ok := f.endpoints[to]
	if !ok {
		f.mu.Unlock()
		sb.release()
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	cfg := f.linkFor(e.self, to)
	copies := 0
	var delays [2]time.Duration
	dropped := f.partition[e.self] != f.partition[to] ||
		(cfg.Loss > 0 && f.rng.Float64() < cfg.Loss)
	if !dropped {
		copies = 1
		if cfg.Duplicate > 0 && f.rng.Float64() < cfg.Duplicate {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			delays[i] = cfg.Delay
			if cfg.Jitter > 0 {
				delays[i] += time.Duration(f.rng.Int63n(int64(cfg.Jitter) + 1))
			}
		}
		for i := 0; i < copies; i++ {
			if delays[i] > 0 {
				sb.refs.Add(1)
				f.scheduleDelivery(e.self, dst, sb, delays[i])
			}
		}
	}
	f.mu.Unlock()
	for i := 0; i < copies; i++ {
		if delays[i] <= 0 {
			deliverNow(e.self, dst, sb)
		}
	}
	sb.release()
	return nil
}

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	e.mu.Unlock()
	if alreadyClosed {
		return nil
	}
	e.dropPending()
	f := e.fabric
	f.mu.Lock()
	delete(f.endpoints, e.self)
	f.mu.Unlock()
	close(e.recv)
	return nil
}

// dropPending releases datagrams queued by SendBatch but never flushed.
func (e *inprocEndpoint) dropPending() {
	e.sendMu.Lock()
	for i, p := range e.pending {
		p.sb.release()
		e.pending[i] = pendingSend{}
	}
	e.pending = e.pending[:0]
	e.sendMu.Unlock()
}

// closeQueue is used by Fabric.Close after all deliveries have drained.
func (e *inprocEndpoint) closeQueue() {
	e.mu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	e.mu.Unlock()
	if !alreadyClosed {
		e.dropPending()
		close(e.recv)
	}
}
