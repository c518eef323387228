// Package core integrates the architecture's layers into the group
// communication service the paper describes: a membership engine and a
// reliable multicast engine wired together so that view changes flush
// unstable traffic (approximate virtual synchrony), plus the failure
// detector the membership engine embeds. One Stack is one node's
// attachment to one process group.
//
// A Stack is a proto.Handler: it runs identically under the
// discrete-event simulator (internal/netsim) and in real time over UDP
// (internal/noderun); the public root package scalamedia wraps the latter.
package core

import (
	"time"

	"scalamedia/internal/bulk"
	"scalamedia/internal/flightrec"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// Config parameterizes a Stack.
type Config struct {
	// Group is the process group to participate in.
	Group id.Group
	// Contact is an existing member to join through; id.None bootstraps
	// a new group.
	Contact id.Node
	// Ordering is the multicast delivery discipline. Defaults to FIFO.
	Ordering rmcast.Ordering

	// Membership timing (zero values take the layer defaults).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	FlushTimeout   time.Duration
	JoinRetry      time.Duration
	// JoinBackoffMax and JoinAttempts tune the jittered-exponential join
	// retry; see member.Config.
	JoinBackoffMax time.Duration
	JoinAttempts   int
	// AdvertiseAddr is the transport address this node asks the group to
	// reach it at; see member.Config.AdvertiseAddr.
	AdvertiseAddr string

	// Multicast timing (zero values take the layer defaults).
	ResendAfter    time.Duration
	StabilizeEvery time.Duration

	// FlowWindow bounds this sender's unstable multicast history in
	// messages; a full window makes Multicast return
	// rmcast.ErrBackpressure until stability frees slots. Zero disables
	// flow control (the historical unbounded behaviour). Flow control
	// applies to the flat multicast path only; the AutoHier overlay path
	// bypasses it. Setting FlowWindow, SlowAfter or an EvictSlow policy
	// turns on slow tracking (see Hooks.OnSlow).
	FlowWindow int
	// FlowWindowBytes additionally bounds the window in payload bytes;
	// zero means no byte bound.
	FlowWindowBytes int
	// SlowAfter is the ack-lag (messages) past which a member is flagged
	// slow; zero derives a default from FlowWindow. See
	// rmcast.Config.SlowAfter.
	SlowAfter int
	// SlowPolicy and SlowGrace select what happens to flagged members:
	// throttle senders to them (default) or evict after the grace budget.
	// See member.Config.
	SlowPolicy member.SlowPolicy
	SlowGrace  time.Duration
	// OnFlowOpen fires when a previously full flow window drains below
	// its bound; see rmcast.Config.OnFlowOpen.
	OnFlowOpen func()

	// AutoHier routes application multicasts through a self-organizing
	// hierarchical overlay (internal/hier): nodes measure peer RTTs,
	// cluster by latency, elect coordinators and reshape under churn.
	// Membership, view changes and state transfer stay on the flat group;
	// the overlay claims groups Group+1 (intra-cluster), Group+2 (relay
	// set) and Group+3 (RTT probes), which must not be used elsewhere.
	// Delivery becomes FIFO per origin — the hierarchy's guarantee —
	// regardless of Ordering, and the overlay's per-peer distance matrix
	// feeds the flat group's suppression timers.
	AutoHier bool
	// HierFanOut bounds overlay cluster sizes (and with them every
	// coordinator's re-multicast fan-out); zero takes the hier default.
	HierFanOut int
	// HierForm tunes the overlay formation protocol (zero = defaults).
	HierForm hier.FormConfig

	// OnPeerAddr receives learned member addresses so the driver can
	// teach the transport peer table; see member.Config.OnPeerAddr.
	OnPeerAddr func(id.Node, string)
	// PrimaryPartition applies the membership majority rule; see
	// member.Config.PrimaryPartition.
	PrimaryPartition bool

	// Metrics, when non-nil, receives live counters from both engines.
	Metrics *stats.Registry
	// MetricsPrefix namespaces the multicast engine's metrics; empty
	// takes the rmcast default ("rmcast.").
	MetricsPrefix string
	// Flight, when non-nil, records protocol events from both engines.
	Flight *flightrec.Recorder
}

// Hooks are a Stack's upcalls, all called from the event loop. They are
// kept apart from Config so that a layer built on the Stack fills them
// with its own handlers and passes its caller's Config through whole.
type Hooks struct {
	// OnView observes installed views.
	OnView func(member.View)
	// OnDeliver receives multicast messages.
	OnDeliver func(rmcast.Delivery)
	// OnEvicted fires if this node is removed from the group.
	OnEvicted func()
	// OnJoinFailed fires once when the join attempt cap is exhausted;
	// see member.Config.OnJoinFailed.
	OnJoinFailed func(error)
	// Snapshot and OnState enable application state transfer to joining
	// members; see member.Config.
	Snapshot func() []byte
	OnState  func(member.View, []byte)
	// OnObject receives completed bulk objects; OnObjectProgress reports
	// per-generation transfer progress. The bulk engine (internal/bulk,
	// default geometry) is always present — it generates no traffic until
	// an object is published or a manifest arrives.
	OnObject         func(bulk.Object)
	OnObjectProgress func(bulk.Progress)
	// OnSlow observes slow-flag transitions: peer, its ack lag, and
	// whether it is now flagged. It fires only while Config turns slow
	// tracking on.
	OnSlow func(peer id.Node, lag uint64, slow bool)
}

// Stack is one node's group communication service.
type Stack struct {
	env    proto.Env
	cfg    Config
	member *member.Engine
	mcast  *rmcast.Engine
	hier   *hier.Engine // nil unless Config.AutoHier
	bulk   *bulk.Engine
}

var (
	_ proto.Handler  = (*Stack)(nil)
	_ proto.Windowed = (*Stack)(nil)
)

// NewStack builds and wires the layer engines.
func NewStack(env proto.Env, cfg Config, h Hooks) *Stack {
	s := &Stack{env: env, cfg: cfg}
	// Under AutoHier the overlay's RTT matrix seeds the flat group's
	// suppression timers too; the closure defers to the engine built
	// below (rmcast treats a zero distance as "fall back to defaults").
	var dist func(id.Node) time.Duration
	if cfg.AutoHier {
		dist = func(p id.Node) time.Duration { return s.hier.PeerDistance(p) }
	}
	// Slow tracking is opt-in: it only runs when an overload knob asks
	// for it, so other configurations keep their exact behaviour (no
	// extra flight events or counter churn).
	var onSlow func(id.Node, uint64, bool)
	if cfg.FlowWindow > 0 || cfg.SlowAfter > 0 || cfg.SlowPolicy == member.EvictSlow {
		onSlow = func(peer id.Node, lag uint64, slow bool) {
			s.member.SetSlow(peer, slow)
			if h.OnSlow != nil {
				h.OnSlow(peer, lag, slow)
			}
		}
	}
	s.mcast = rmcast.New(env, rmcast.Config{
		Group:           cfg.Group,
		Ordering:        cfg.Ordering,
		ResendAfter:     cfg.ResendAfter,
		StabilizeEvery:  cfg.StabilizeEvery,
		Distance:        dist,
		FlowWindow:      cfg.FlowWindow,
		FlowWindowBytes: cfg.FlowWindowBytes,
		SlowAfter:       cfg.SlowAfter,
		OnFlowOpen:      cfg.OnFlowOpen,
		OnSlow:          onSlow,
		OnDeliver:       h.OnDeliver,
		Metrics:         cfg.Metrics,
		MetricsPrefix:   cfg.MetricsPrefix,
		Flight:          cfg.Flight,
	})
	if cfg.AutoHier {
		h, err := hier.New(env, hier.Config{
			LocalGroup:     cfg.Group + 1,
			WideGroup:      cfg.Group + 2,
			ClockGroup:     cfg.Group + 3,
			AutoHier:       true,
			Members:        []id.Node{env.Self()},
			FanOut:         cfg.HierFanOut,
			Form:           cfg.HierForm,
			StabilizeEvery: cfg.StabilizeEvery,
			Metrics:        cfg.Metrics,
			Flight:         cfg.Flight,
			OnDeliver: func(d hier.Delivery) {
				if h.OnDeliver != nil {
					h.OnDeliver(rmcast.Delivery{
						Group:   cfg.Group,
						Sender:  d.Origin,
						Seq:     d.Seq,
						Payload: d.Payload,
					})
				}
			},
		})
		if err != nil {
			// Unreachable: the three derived groups are distinct by
			// construction, the only thing hier.New validates here.
			panic("core: " + err.Error())
		}
		s.hier = h
	}
	// The bulk engine stripes coded symbols over the flat membership; under
	// AutoHier its relayed fan-out follows the overlay tree instead of
	// going wide, so relay traffic stays within a cluster (plus the small
	// coordinator set) exactly like the session's ordered multicasts.
	var relayPlan func() (local, remote []id.Node)
	if cfg.AutoHier {
		relayPlan = func() (local, remote []id.Node) {
			t := s.hier.CurrentTopology()
			ci := t.ClusterOf(env.Self())
			if ci < 0 {
				return nil, nil
			}
			local = append(local, t.Clusters[ci]...)
			for i := range t.Clusters {
				if i == ci {
					continue
				}
				if r := t.RelayOf(i); r != id.None {
					remote = append(remote, r)
				}
			}
			return local, remote
		}
	}
	s.bulk = bulk.New(env, bulk.Config{
		Group:      cfg.Group,
		Distance:   dist,
		RelayPlan:  relayPlan,
		OnObject:   h.OnObject,
		OnProgress: h.OnObjectProgress,
	})
	s.bulk.SetMetrics(cfg.Metrics)
	s.member = member.New(env, member.Config{
		Group:            cfg.Group,
		Metrics:          cfg.Metrics,
		Flight:           cfg.Flight,
		Contact:          cfg.Contact,
		HeartbeatEvery:   cfg.HeartbeatEvery,
		SuspectAfter:     cfg.SuspectAfter,
		FlushTimeout:     cfg.FlushTimeout,
		JoinRetry:        cfg.JoinRetry,
		JoinBackoffMax:   cfg.JoinBackoffMax,
		JoinAttempts:     cfg.JoinAttempts,
		AdvertiseAddr:    cfg.AdvertiseAddr,
		SlowPolicy:       cfg.SlowPolicy,
		SlowGrace:        cfg.SlowGrace,
		PrimaryPartition: cfg.PrimaryPartition,
		Snapshot:         h.Snapshot,
		OnState:          h.OnState,
		OnJoinFailed:     h.OnJoinFailed,
		OnPeerAddr:       cfg.OnPeerAddr,
		StabilityVector:  s.mcast.StabilityVector,
		OnFlush: func(proposed member.View) {
			// Freeze before flushing: nothing sent after the flush can
			// slip into the old view behind the coordinator's
			// flush-convergence gate.
			s.mcast.Freeze()
			s.mcast.Flush(proposed)
		},
		OnView: func(v member.View) {
			s.mcast.SetView(v)
			s.bulk.SetMembers(v.Members)
			if s.hier != nil {
				// The admitted membership is the overlay's universe: the
				// formation leader reshapes the tree around joins and
				// departures as the flat layer admits them.
				s.hier.SetMembers(v.Members)
			}
			if h.OnView != nil {
				h.OnView(v)
			}
		},
		OnEvicted: func(member.View) {
			if h.OnEvicted != nil {
				h.OnEvicted()
			}
		},
	})
	return s
}

// Multicast sends payload to the group with the configured ordering —
// through the self-organizing overlay under AutoHier (FIFO per origin),
// through the flat group otherwise.
func (s *Stack) Multicast(payload []byte) error {
	return s.MulticastStream(0, payload)
}

// MulticastStream sends payload labelled with a media stream; the label
// reaches Delivery.Stream and has no protocol effect. The overlay path
// (AutoHier) has no stream notion, so the label is dropped there.
func (s *Stack) MulticastStream(stream id.Stream, payload []byte) error {
	if s.hier != nil {
		return s.hier.Multicast(payload)
	}
	return s.mcast.MulticastStream(stream, payload)
}

// Hier exposes the self-organizing overlay engine (nil unless AutoHier).
func (s *Stack) Hier() *hier.Engine { return s.hier }

// Bulk exposes the erasure-coded bulk-dissemination engine.
func (s *Stack) Bulk() *bulk.Engine { return s.bulk }

// View returns the current membership view.
func (s *Stack) View() member.View { return s.member.View() }

// Joining reports whether admission is still pending.
func (s *Stack) Joining() bool { return s.member.Joining() }

// Evicted reports whether this node was removed from the group.
func (s *Stack) Evicted() bool { return s.member.Evicted() }

// Leave announces a voluntary departure.
func (s *Stack) Leave() { s.member.Leave() }

// Counters exposes the multicast protocol counters.
func (s *Stack) Counters() rmcast.Counters { return s.mcast.Counters() }

// HistoryLen exposes the multicast layer's unstable-history size, used by
// the chaos harness to verify stability garbage collection.
func (s *Stack) HistoryLen() int { return s.mcast.HistoryLen() }

// FlowOccupancy exposes the sender's own unstable-history occupancy —
// the quantity Config.FlowWindow bounds.
func (s *Stack) FlowOccupancy() int { return s.mcast.FlowOccupancy() }

// FlowBlocked reports whether the sender's flow window is currently full.
func (s *Stack) FlowBlocked() bool { return s.mcast.FlowBlocked() }

// SlowMembers returns the members this node currently flags as slow.
func (s *Stack) SlowMembers() []id.Node { return s.member.SlowMembers() }

// Member exposes the membership engine (for suspicion queries).
func (s *Stack) Member() *member.Engine { return s.member }

// OnMessage dispatches a datagram: the overlay's three derived groups go
// to the hierarchy, everything else to the flat engines.
func (s *Stack) OnMessage(from id.Node, msg *wire.Message) {
	if s.hier != nil {
		switch msg.Group {
		case s.cfg.Group + 1, s.cfg.Group + 2, s.cfg.Group + 3:
			s.hier.OnMessage(from, msg)
			return
		}
	}
	switch msg.Kind {
	case wire.KindBulkSym, wire.KindBulkReq:
		s.bulk.OnMessage(from, msg)
		return
	}
	s.member.OnMessage(from, msg)
	s.mcast.OnMessage(from, msg)
}

// OnTick drives the engines.
func (s *Stack) OnTick(now time.Time) {
	s.member.OnTick(now)
	s.mcast.OnTick(now)
	s.bulk.OnTick(now)
	if s.hier != nil {
		s.hier.OnTick(now)
	}
}

// Window, OnActivationEnd and OnWindow forward proto.Windowed to the flat
// multicast engine, the one layer that holds decisions back (the overlay's
// engines order FIFO).
func (s *Stack) Window() time.Duration  { return s.mcast.Window() }
func (s *Stack) OnActivationEnd()       { s.mcast.OnActivationEnd() }
func (s *Stack) OnWindow(now time.Time) { s.mcast.OnWindow(now) }
