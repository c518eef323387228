package chaos

import (
	"fmt"
	"time"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/workload"
)

// Engine is one member of a measured group, as RunGroup drives it.
type Engine interface {
	proto.Handler
	MulticastStream(stream id.Stream, payload []byte) error
	Counters() rmcast.Counters
}

// NewEngine builds node n's engine, which hands every delivery to deliver.
type NewEngine func(env proto.Env, n id.Node, deliver func(rmcast.Delivery)) Engine

// FlatGroup returns a constructor of engines sharing one static view of
// members 1..n, each built by newEngine from cfg with OnDeliver set.
func FlatGroup[E interface {
	Engine
	SetView(member.View)
}](n int, cfg rmcast.Config, newEngine func(proto.Env, rmcast.Config) E) NewEngine {
	view := member.NewView(1, NodeIDs(n))
	return func(env proto.Env, _ id.Node, deliver func(rmcast.Delivery)) Engine {
		c := cfg
		c.OnDeliver = deliver
		eng := newEngine(env, c)
		eng.SetView(view)
		return eng
	}
}

// HierGroup returns a constructor of static hierarchical engines over
// members 1..n in clusters of the given size, configured by cfg.
func HierGroup(n, cluster int, cfg hier.Config) NewEngine {
	cfg.Topology = hier.Cluster(NodeIDs(n), cluster)
	return func(env proto.Env, self id.Node, deliver func(rmcast.Delivery)) Engine {
		c := cfg
		c.OnDeliver = func(d hier.Delivery) {
			deliver(rmcast.Delivery{Group: d.Group, Sender: d.Origin, Seq: d.Seq, Payload: d.Payload})
		}
		return hierEngine{NewHier(env, self, c)}
	}
}

// hierEngine gives a hierarchical engine the Engine send call; the
// overlay carries no stream labels.
type hierEngine struct{ *hier.Engine }

func (h hierEngine) MulticastStream(_ id.Stream, payload []byte) error {
	return h.Multicast(payload)
}

// NewHier builds node n's hierarchical engine on the scenario groups: 1
// within clusters, 2 between relays. A rejected configuration is a
// harness bug, and panics.
func NewHier(env proto.Env, n id.Node, cfg hier.Config) *hier.Engine {
	cfg.LocalGroup, cfg.WideGroup = 1, 2
	eng, err := hier.New(env, cfg)
	if err != nil {
		panic(fmt.Sprintf("chaos: hier.New(n%d): %v", n, err))
	}
	return eng
}

// GroupOptions parameterizes RunGroup.
type GroupOptions struct {
	Net NetConfig
	// Nodes is the group size.
	Nodes int
	// Ordering is the discipline the engines deliver in; the safety
	// checks hold the deliveries to it.
	Ordering rmcast.Ordering
	// New builds each member's engine.
	New NewEngine
	// Senders are the sending members. Sender i sends PerSender
	// messages at Poisson arrivals Gap apart on average, drawn from
	// Net.Seed + 31i and starting at 10ms.
	Senders   []id.Node
	PerSender int
	Gap       time.Duration
	// Payload is the message size in bytes, at least 16: a message
	// starts with its payloadKey. Defaults to 64.
	Payload int
	// Streams spreads each sender's messages round-robin over that many
	// stream labels; zero keeps every message on stream 0.
	Streams int
	// Tail is how long the run goes on after the last send.
	Tail time.Duration
}

// GroupResult is one measured group run. The embedded trace holds every
// delivery and accepted send, for Safety.
type GroupResult struct {
	*Trace
	// Latency is every delivery's send-to-delivery latency, in ms.
	Latency *stats.Histogram
	// Delivered counts deliveries; Expected is every send at every member.
	Delivered, Expected int
	// Simulated is the virtual time run, the last send plus the tail;
	// Wall is the wall-clock time that took.
	Simulated, Wall time.Duration
}

// RunGroup drives a static group of engines through the measured
// workload: every sender's Poisson arrivals, then the tail. It records
// every delivery into the trace and its latency into the histogram.
func RunGroup(o GroupOptions) *GroupResult {
	if o.Payload <= 0 {
		o.Payload = 64
	}
	if o.Payload < 16 {
		panic(fmt.Sprintf("chaos: %d-byte payload cannot carry its 16-byte key", o.Payload))
	}
	net := NewNet(o.Net)
	view := member.NewView(1, NodeIDs(o.Nodes))
	r := &GroupResult{
		Trace: &Trace{
			Opts:  Options{Seed: o.Net.Seed, Nodes: o.Nodes, Ordering: o.Ordering},
			Nodes: make(map[id.Node]*NodeTrace, o.Nodes),
			Order: NodeIDs(o.Nodes),
			Sent:  make(map[string]SentRec),
		},
		Latency:  &stats.Histogram{},
		Expected: len(o.Senders) * o.PerSender * o.Nodes,
	}
	type sendKey struct {
		sender id.Node
		seq    uint64
	}
	sentAt := make(map[sendKey]time.Time)
	engines := make(map[id.Node]Engine, o.Nodes)
	for _, n := range r.Order {
		// Every member expects every send: sizing the log up front keeps
		// its growth out of the timed run.
		nt := &NodeTrace{Node: n, Up: true, FinalView: view,
			Deliveries: make([]Delivery, 0, len(o.Senders)*o.PerSender)}
		r.Nodes[n] = nt
		net.AddNode(n, func(env proto.Env) proto.Handler {
			eng := o.New(env, n, func(d rmcast.Delivery) {
				r.Delivered++
				nt.Deliveries = append(nt.Deliveries, Delivery{Delivery: d, At: net.Elapsed()})
				if t0, ok := sentAt[sendKey{d.Sender, d.Seq}]; ok {
					r.Latency.ObserveDuration(env.Now().Sub(t0))
				}
			})
			engines[n] = eng
			return eng
		})
	}

	body := workload.New(o.Net.Seed + 7).Payload(o.Payload)
	counters := make(map[id.Node]uint64)
	var lastSend time.Duration
	for s, sender := range o.Senders {
		for _, at := range workload.Arrivals(o.Net.Seed+int64(s)*31, o.Gap, 10*time.Millisecond, o.PerSender) {
			lastSend = max(lastSend, at)
			net.At(at, func() {
				counters[sender]++
				seq := counters[sender]
				payload := append(payloadKey(sender, seq), body[16:]...)
				sentAt[sendKey{sender, seq}] = net.Now()
				stream := id.Stream(0)
				if o.Streams > 1 {
					stream = id.Stream(seq % uint64(o.Streams))
				}
				prefix := len(r.Nodes[sender].Deliveries)
				if err := engines[sender].MulticastStream(stream, payload); err != nil {
					counters[sender]--
					return
				}
				r.Sent[string(payload)] = SentRec{Sender: sender, PrefixLen: prefix}
			})
		}
	}

	r.Simulated = lastSend + o.Tail
	start := time.Now()
	net.Run(r.Simulated)
	r.Wall = time.Since(start)

	for n, eng := range engines {
		r.Nodes[n].Recovery = eng.Counters()
	}
	r.Net = net.Stats()
	return r
}
