// Package failure implements the heartbeat failure detector used by the
// membership layer. Each node periodically multicasts a heartbeat to its
// monitored peer set; a peer silent for longer than the suspicion timeout
// is declared suspected, and un-suspected again the moment traffic from it
// resumes (crash-recovery at this layer is the membership layer's
// business; the detector only tracks reachability).
//
// The detector is a proto.Handler: it runs inside a node's event loop and
// is driven by OnMessage and OnTick. Any protocol traffic from a peer
// counts as liveness, so a busy peer is not suspected even when its
// heartbeats are lost. Heartbeats still go out every HeartbeatEvery,
// whatever else the node sends.
package failure

import (
	"sort"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// Default protocol timing. Suspicion must comfortably exceed the heartbeat
// period; 5x tolerates four consecutive losses.
const (
	DefaultHeartbeatEvery = 50 * time.Millisecond
	DefaultSuspectAfter   = 250 * time.Millisecond
)

// Event reports a peer's reachability transition.
type Event struct {
	// Node is the peer whose state changed.
	Node id.Node
	// Suspected is true when the peer became suspected, false when it
	// was cleared.
	Suspected bool
	// At is the detector-local time of the transition.
	At time.Time
}

// Config parameterizes a Detector.
type Config struct {
	// Group scopes the heartbeats; detectors of different groups on one
	// node do not confuse each other.
	Group id.Group
	// HeartbeatEvery is the beacon period. Defaults to
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence threshold. Defaults to
	// DefaultSuspectAfter.
	SuspectAfter time.Duration
	// OnEvent receives suspicion transitions. Called synchronously from
	// the event loop; must not block. Optional.
	OnEvent func(Event)
}

// Detector is the failure-detection engine for one node and group.
type Detector struct {
	env proto.Env
	cfg Config

	peers    map[id.Node]*peerState
	lastBeat time.Time
	lastTick time.Time
	beats    uint64
}

type peerState struct {
	lastHeard time.Time
	suspected bool
}

var _ proto.Handler = (*Detector)(nil)

// New returns a detector with an empty monitored set.
func New(env proto.Env, cfg Config) *Detector {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	return &Detector{
		env:   env,
		cfg:   cfg,
		peers: make(map[id.Node]*peerState),
	}
}

// SetPeers replaces the monitored set, typically on a view change. New
// peers start un-suspected with a fresh deadline; peers no longer listed
// are forgotten. The local node is never monitored.
func (d *Detector) SetPeers(peers []id.Node) {
	now := d.env.Now()
	next := make(map[id.Node]*peerState, len(peers))
	for _, p := range peers {
		if p == d.env.Self() {
			continue
		}
		if st, ok := d.peers[p]; ok {
			next[p] = st
			continue
		}
		next[p] = &peerState{lastHeard: now}
	}
	d.peers = next
}

// Suspected returns whether the peer is currently suspected. Unknown peers
// are not suspected.
func (d *Detector) Suspected(n id.Node) bool {
	st, ok := d.peers[n]
	return ok && st.suspected
}

// Alive returns the monitored peers not currently suspected.
func (d *Detector) Alive() []id.Node {
	var out []id.Node
	for n, st := range d.peers {
		if !st.suspected {
			out = append(out, n)
		}
	}
	return out
}

// OnMessage counts any traffic from a monitored peer as liveness.
func (d *Detector) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Kind == wire.KindHeartbeat && msg.Group != d.cfg.Group {
		return
	}
	st, ok := d.peers[from]
	if !ok {
		return
	}
	st.lastHeard = d.env.Now()
	if st.suspected {
		st.suspected = false
		d.emit(Event{Node: from, Suspected: false, At: st.lastHeard})
	}
}

// OnTick sends due heartbeats and updates suspicion state. Peers are
// visited in ID order so the datagram and event sequence is the same on
// every run of a seeded simulation.
func (d *Detector) OnTick(now time.Time) {
	peers := make([]id.Node, 0, len(d.peers))
	for p := range d.peers {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	// Ticks come every few milliseconds. One that comes a heartbeat period
	// or more after the last means this node did not run — a stopped
	// process, a frozen VM — and whatever its peers sent meanwhile is lost
	// or still queued behind this tick. Silence the node could not have
	// heard is no evidence against them: every deadline moves out by the
	// gap. (All members of a group frozen together used to wake up and
	// evict each other.)
	if gap := now.Sub(d.lastTick); !d.lastTick.IsZero() && gap >= d.cfg.HeartbeatEvery {
		for _, st := range d.peers {
			st.lastHeard = st.lastHeard.Add(gap)
		}
	}
	d.lastTick = now
	if now.Sub(d.lastBeat) >= d.cfg.HeartbeatEvery {
		d.lastBeat = now
		d.beats++
		for _, p := range peers {
			d.env.Send(p, &wire.Message{
				Kind:  wire.KindHeartbeat,
				Group: d.cfg.Group,
				Aux:   d.beats,
			})
		}
	}
	for _, n := range peers {
		st := d.peers[n]
		if !st.suspected && now.Sub(st.lastHeard) > d.cfg.SuspectAfter {
			st.suspected = true
			d.emit(Event{Node: n, Suspected: true, At: now})
		}
	}
}

func (d *Detector) emit(ev Event) {
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(ev)
	}
}
