package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/member"
	"scalamedia/internal/proto"
	"scalamedia/internal/session"
)

// SessionOptions parameterizes a session-layer scenario run.
type SessionOptions struct {
	// Seed fixes all randomness, as in Options.
	Seed int64
	// Nodes is the session size. Defaults to 4.
	Nodes int
	// Schedule overrides the generated fault schedule.
	Schedule Schedule
}

// SessionNode records one participant's session-layer state.
type SessionNode struct {
	Node    id.Node
	Events  []session.Event
	Up      bool
	Evicted bool
	// GotEvicted reports whether a SelfEvicted event was emitted.
	GotEvicted bool
	FinalView  member.View
	Directory  []session.Announcement
}

// SessionTrace records a session scenario run.
type SessionTrace struct {
	Opts     SessionOptions
	Schedule Schedule
	Order    []id.Node
	Nodes    map[id.Node]*SessionNode
	// Announced maps stream ID to its announcing node; Withdrawn marks
	// streams whose owner later withdrew them.
	Announced map[id.Stream]id.Node
	Withdrawn map[id.Stream]bool
	// Flight is the run's shared flight recorder; see Trace.Flight.
	Flight *flightrec.Recorder
}

// RunSession executes one seeded session-layer scenario: participants
// join a session, announce and withdraw media streams under the fault
// schedule, and the trace captures the stream directories and event
// histories for the convergence invariants.
func RunSession(opts SessionOptions) *SessionTrace {
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	const window = 4 * time.Second
	sched := opts.Schedule
	if sched == nil {
		sched = Generate(opts.Seed, NodeIDs(opts.Nodes), window)
	}
	tr := &SessionTrace{
		Opts:      opts,
		Schedule:  sched,
		Order:     NodeIDs(opts.Nodes),
		Nodes:     make(map[id.Node]*SessionNode),
		Announced: make(map[id.Stream]id.Node),
		Withdrawn: make(map[id.Stream]bool),
		Flight:    flightrec.New(8192),
	}

	sim := NewNet(NetConfig{Seed: opts.Seed, Link: baseLink})

	engines := make(map[id.Node]*session.Engine, opts.Nodes)
	for _, n := range tr.Order {
		sn := &SessionNode{Node: n}
		tr.Nodes[n] = sn
		cfg := StackConfig(9, n)
		cfg.Flight = tr.Flight
		sim.AddNode(n, func(env proto.Env) proto.Handler {
			eng := session.New(env, session.Config{
				Config: cfg,
				OnEvent: func(ev session.Event) {
					sn.Events = append(sn.Events, ev)
					if ev.Kind == session.SelfEvicted {
						sn.GotEvicted = true
					}
				},
			})
			engines[n] = eng
			return eng
		})
	}

	sim.Faults(sched, joinWindow, joinWindow+window, tr.Order)

	// Workload: seeded announces and withdrawals. Stream IDs encode the
	// owner so concurrent announcers never collide.
	wl := rand.New(rand.NewSource(opts.Seed + 1))
	counters := make(map[id.Node]uint64)
	for i := 0; i < 3*opts.Nodes; i++ {
		owner := id.Node(1 + wl.Intn(opts.Nodes))
		at := joinWindow + time.Duration(wl.Int63n(int64(window)))
		withdrawAt := time.Duration(0)
		if wl.Intn(3) == 0 {
			withdrawAt = at + 200*time.Millisecond +
				time.Duration(wl.Int63n(int64(time.Second)))
		}
		sim.At(at, func() {
			eng := engines[owner]
			if !sim.Up(owner) || eng.Evicted() {
				return
			}
			counters[owner]++
			sid := id.Stream(uint64(owner)<<16 | counters[owner])
			spec := media.TelephoneAudio(sid, fmt.Sprintf("mic-n%d-%d", owner, counters[owner]))
			if err := eng.Announce(spec, 8000); err != nil {
				counters[owner]--
				return
			}
			tr.Announced[sid] = owner
			if withdrawAt > 0 {
				sim.At(withdrawAt, func() {
					if sim.Up(owner) && engines[owner].Withdraw(sid) == nil {
						tr.Withdrawn[sid] = true
					}
				})
			}
		})
	}

	sim.Run(joinWindow + window + settleWindow)

	for n, sn := range tr.Nodes {
		eng := engines[n]
		sn.Up = sim.Up(n)
		sn.Evicted = eng.Evicted()
		sn.FinalView = eng.View()
		sn.Directory = eng.Directory()
		sort.Slice(sn.Directory, func(i, j int) bool {
			return sn.Directory[i].Spec.ID < sn.Directory[j].Spec.ID
		})
	}
	return tr
}

// live returns nodes that finished up and un-evicted.
func (tr *SessionTrace) live() []id.Node {
	var out []id.Node
	for _, n := range tr.Order {
		sn := tr.Nodes[n]
		if sn.Up && !sn.Evicted {
			out = append(out, n)
		}
	}
	return out
}

// Violations checks the session-layer invariants: view convergence among
// live participants, identical stream directories everywhere, directory
// entries owned only by final-view members, stable announcements present
// and stable withdrawals absent, and eviction consistency (Evicted()
// implies a SelfEvicted event reached the application and vice versa).
func (tr *SessionTrace) Violations() []string {
	var out []string
	live := tr.live()
	if len(live) == 0 {
		return []string{"view-convergence: no live nodes at end of run"}
	}
	ref := tr.Nodes[live[0]]
	crashed := make(map[id.Node]bool)
	for _, ev := range tr.Schedule {
		if ev.Kind == Crash {
			crashed[ev.Node] = true
		}
	}
	for _, n := range live[1:] {
		sn := tr.Nodes[n]
		if !sn.FinalView.Equal(ref.FinalView) {
			out = append(out, fmt.Sprintf(
				"view-convergence: n%d ends in view %d %v, n%d in view %d %v",
				ref.Node, ref.FinalView.ID, ref.FinalView.Members,
				n, sn.FinalView.ID, sn.FinalView.Members))
		}
		if len(sn.Directory) != len(ref.Directory) {
			out = append(out, fmt.Sprintf(
				"directory-agreement: n%d has %d entries, n%d has %d",
				ref.Node, len(ref.Directory), n, len(sn.Directory)))
			continue
		}
		for i := range sn.Directory {
			if sn.Directory[i] != ref.Directory[i] {
				out = append(out, fmt.Sprintf(
					"directory-agreement: n%d and n%d differ at entry %d (%v vs %v)",
					ref.Node, n, i, ref.Directory[i], sn.Directory[i]))
				break
			}
		}
	}
	for _, n := range live {
		sn := tr.Nodes[n]
		for _, a := range sn.Directory {
			if !sn.FinalView.Contains(a.Owner) {
				out = append(out, fmt.Sprintf(
					"directory-ownership: n%d lists stream %d owned by departed n%d",
					n, a.Spec.ID, a.Owner))
			}
			if tr.Withdrawn[a.Spec.ID] {
				out = append(out, fmt.Sprintf(
					"directory-withdrawal: n%d still lists withdrawn stream %d",
					n, a.Spec.ID))
			}
		}
		// Stable announcements — from never-crashed, un-evicted owners in
		// the final view, never withdrawn — must be present.
		have := make(map[id.Stream]bool)
		for _, a := range sn.Directory {
			have[a.Spec.ID] = true
		}
		for sid, owner := range tr.Announced {
			osn := tr.Nodes[owner]
			stable := !crashed[owner] && !osn.Evicted && sn.FinalView.Contains(owner)
			if stable && !tr.Withdrawn[sid] && !have[sid] {
				out = append(out, fmt.Sprintf(
					"directory-validity: n%d is missing stream %d from stable owner n%d",
					n, sid, owner))
			}
		}
	}
	for _, n := range tr.Order {
		sn := tr.Nodes[n]
		if sn.Up && sn.Evicted != sn.GotEvicted {
			out = append(out, fmt.Sprintf(
				"eviction: n%d Evicted()=%v but SelfEvicted event=%v",
				n, sn.Evicted, sn.GotEvicted))
		}
	}
	return out
}
