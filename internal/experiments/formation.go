package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

// formationParams parameterizes one self-organization run: n nodes spread
// across latency sites of siteSize, forming under the given fan-out bound
// and cadence within the measurement window.
type formationParams struct {
	n        int
	siteSize int
	fanOut   int
	report   time.Duration
	announce time.Duration
	window   time.Duration
	seed     int64
}

// formationResult is what one run (or the static baseline) yields.
type formationResult struct {
	FormedAt  time.Duration // simulated time of the last topology install
	Rounds    uint64        // final agreed epoch (reshape rounds taken)
	TreeCost  time.Duration // Σ member→relay + Σ relay→hub distances
	Ctl       uint64        // formation-control datagrams over the window
	Converged bool          // all nodes agree on one covering, bounded tree
}

// siteDist is the synthetic latency oracle shared by the auto run and the
// static baseline so their tree costs are directly comparable: 2ms within
// a site of siteSize consecutive IDs, 20ms across sites.
func siteDist(siteSize int) func(a, b id.Node) time.Duration {
	return chaos.Sites(siteSize, 20*time.Millisecond)
}

// treeCost prices a dissemination tree the way the formation layer does:
// each member pays its distance to the cluster relay, each relay its
// distance to the hub (the lowest-ID relay).
func treeCost(t hier.Topology, dist func(a, b id.Node) time.Duration) time.Duration {
	relays := t.Relays()
	hub := id.None
	for _, r := range relays {
		if hub == id.None || r < hub {
			hub = r
		}
	}
	var cost time.Duration
	for i, c := range t.Clusters {
		r := t.RelayOf(i)
		for _, m := range c {
			cost += dist(m, r)
		}
		cost += dist(r, hub)
	}
	return cost
}

// runFormation drives one AutoHier group from a flat member list to an
// agreed tree and measures how the self-organization itself costs: time
// to the last install, reshape rounds, the formed tree's cost, and the
// control datagrams spent getting there.
func runFormation(p formationParams) formationResult {
	dist := siteDist(p.siteSize)
	sim := chaos.NewNet(chaos.NetConfig{Seed: p.seed, Sites: dist})
	members := chaos.NodeIDs(p.n)
	var lastInstall time.Time
	engines := make(map[id.Node]*hier.Engine, p.n)
	for _, m := range members {
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			engines[m] = chaos.NewHier(env, m, hier.Config{
				AutoHier: true,
				Members:  members,
				FanOut:   p.fanOut,
				Distance: func(q id.Node) time.Duration { return dist(m, q) },
				Form: hier.FormConfig{
					ReportEvery:   p.report,
					AnnounceEvery: p.announce,
					OnInstall: func(uint64, id.Node, hier.Topology) {
						if at := sim.Now(); at.After(lastInstall) {
							lastInstall = at
						}
					},
				},
			})
			return engines[m]
		})
	}
	base := sim.Now()
	sim.Run(p.window)

	ref := engines[1]
	var formedAt time.Duration
	if !lastInstall.IsZero() {
		formedAt = lastInstall.Sub(base)
	}
	topo := ref.CurrentTopology()
	res := formationResult{
		FormedAt: formedAt,
		Rounds:   ref.Epoch(),
		TreeCost: treeCost(topo, dist),
		Ctl:      sim.Stats().SentByKind[wire.KindHierCtl],
		// Converged: one well-formed tree over every member within the
		// fan-out bound, at one epoch everywhere.
		Converged: len(chaos.CheckHierTopology(topo, members, p.fanOut)) == 0,
	}
	for _, eng := range engines {
		if eng.Epoch() != ref.Epoch() {
			res.Converged = false
		}
	}
	return res
}

// staticBaseline prices the hand-configured ablation: the operator
// partitions the ID space into siteSize-node clusters up front, so there
// is no formation time, no reshape round, and no control traffic.
func staticBaseline(n, siteSize int) formationResult {
	return formationResult{
		TreeCost:  treeCost(hier.Cluster(chaos.NodeIDs(n), siteSize), siteDist(siteSize)),
		Converged: true,
	}
}

// t8Case is one row pair of the T8 sweep.
type t8Case struct {
	n, siteSize, fanOut int
	report, announce    time.Duration
	window              time.Duration
}

func t8Cases(quick bool) []t8Case {
	// fanOut = 2×siteSize−1 makes the formation heuristic's target
	// cluster size equal siteSize, so the auto and static trees have
	// the same shape to compare.
	cases := []t8Case{
		{16, 4, 7, 200 * time.Millisecond, 250 * time.Millisecond, 8 * time.Second},
		{64, 8, 15, 200 * time.Millisecond, 250 * time.Millisecond, 8 * time.Second},
		{256, 16, 31, 200 * time.Millisecond, 250 * time.Millisecond, 8 * time.Second},
		{1024, 32, 63, 500 * time.Millisecond, 600 * time.Millisecond, 12 * time.Second},
	}
	if quick {
		return cases[:2]
	}
	return cases
}

// T8Formation produces table T8: what self-organization costs relative to
// a hand-configured hierarchy of the same shape. The auto rows measure
// formation time, reshape rounds, and control datagrams; both rows price
// the resulting tree against the same synthetic site distances, so equal
// tree costs mean the overlay found the operator's layout on its own.
func T8Formation(o Options) Table {
	t := Table{
		ID:    "T8",
		Title: "Self-organizing hierarchy vs static configuration",
		Columns: []string{"n", "org", "form time (ms)", "rounds",
			"tree cost (ms)", "ctl dgrams"},
	}
	for _, c := range t8Cases(o.Quick) {
		auto := runFormation(formationParams{
			n: c.n, siteSize: c.siteSize, fanOut: c.fanOut,
			report: c.report, announce: c.announce, window: c.window,
			seed: o.seed(1000 + int64(c.n)),
		})
		static := staticBaseline(c.n, c.siteSize)
		row := func(org string, r formationResult) {
			note := ""
			if !r.Converged {
				note = " (diverged)"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", c.n), org,
				ms(r.FormedAt) + note,
				fmt.Sprintf("%d", r.Rounds),
				ms(r.TreeCost),
				fmt.Sprintf("%d", r.Ctl),
			})
		}
		row("auto", auto)
		row("static", static)
	}
	return t
}
