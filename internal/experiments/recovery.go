package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/hier"
	"scalamedia/internal/id"
	"scalamedia/internal/member"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rmcast"
	"scalamedia/internal/wire"
	"scalamedia/internal/workload"
)

// recoveryResult aggregates one loss-recovery run: the engine-level
// request/repair event counts (one per multicast under the IP-multicast
// cost model, see rmcast.Counters) against the number of data datagrams
// the network actually lost.
type recoveryResult struct {
	Delivered, Expected int
	LostData            uint64
	Requests            uint64 // repair requests sent
	Repairs             uint64 // retransmissions served
	Suppressed          uint64 // requests cancelled on hearing an equivalent one
	LocalRepairs        uint64 // repairs served by a non-origin member
	Wall                time.Duration
}

// t7Domains is the correlated-loss domain count for T7: each loss event
// gaps n/t7Domains receivers at once, the way a lossy subtree of a
// multicast distribution tree drops one packet for everyone behind it. At
// n=16 domains are singletons (uncorrelated); by n=1024 every loss is
// shared by 64 receivers, which is where per-receiver NACKs implode and
// suppression pays.
const t7Domains = 16

// recoveryWorkload is the shared T7 message schedule.
const (
	t7Senders = 4
	t7PerSend = 10
	t7Gap     = 20 * time.Millisecond
	t7Loss    = 0.05
	t7Tail    = 2 * time.Second
	// t7Stabilize stretches the stability gossip period well past the
	// default 150ms: gossip is what lets a receiver detect the loss of a
	// sender's final message (nothing later arrives to expose the gap),
	// so it must fire within the tail, but at n=1024 every round is a
	// million datagrams, so it must not fire often.
	t7Stabilize = 700 * time.Millisecond
)

func t7Domain(n id.Node) int { return int(n) % t7Domains }

// runFlatRecovery drives one flat FIFO group over a lossy LAN with
// correlated loss domains and tallies recovery traffic.
func runFlatRecovery(n int, seed int64) recoveryResult {
	link := lanLink(t7Loss)
	sim := netsim.New(netsim.Config{
		Seed:    seed,
		Profile: func(_, _ id.Node) netsim.Link { return link },
	})
	sim.SetLossDomains(t7Domain)

	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	view := member.NewView(1, members)

	delivered := 0
	engines := make(map[id.Node]*rmcast.Engine, n)
	for _, m := range members {
		m := m
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng := rmcast.New(env, rmcast.Config{
				Group:          1,
				Ordering:       rmcast.FIFO,
				StabilizeEvery: t7Stabilize,
				OnDeliver:      func(rmcast.Delivery) { delivered++ },
			})
			eng.SetView(view)
			engines[m] = eng
			return eng
		})
	}

	payload := workload.New(seed + 7).Payload(64)
	var lastSend time.Duration
	for s := 0; s < t7Senders && s < n; s++ {
		sender := members[s]
		arrivals := workload.Arrivals(seed+int64(s)*31, t7Gap, 10*time.Millisecond, t7PerSend)
		for _, at := range arrivals {
			if at > lastSend {
				lastSend = at
			}
			sim.At(at, func() { _ = engines[sender].Multicast(payload) })
		}
	}

	start := time.Now()
	sim.Run(lastSend + t7Tail)

	r := recoveryResult{
		Delivered: delivered,
		Expected:  min(t7Senders, n) * t7PerSend * n,
		LostData:  sim.Stats().DroppedByKind[wire.KindData],
		Wall:      time.Since(start),
	}
	for _, eng := range engines {
		c := eng.Counters()
		r.Requests += c.NacksSent
		r.Repairs += c.NacksServed
		r.Suppressed += c.NacksSuppressed
		r.LocalRepairs += c.LocalRepairs
	}
	return r
}

// runHierRecovery is runFlatRecovery over the hierarchical organization:
// recovery is scoped to clusters (and the relay group), so no request or
// repair crosses a cluster boundary.
func runHierRecovery(n, cluster int, seed int64) recoveryResult {
	link := lanLink(t7Loss)
	sim := netsim.New(netsim.Config{
		Seed:    seed,
		Profile: func(_, _ id.Node) netsim.Link { return link },
	})
	sim.SetLossDomains(t7Domain)

	var members []id.Node
	for i := 1; i <= n; i++ {
		members = append(members, id.Node(i))
	}
	topo := hier.Cluster(members, cluster)

	delivered := 0
	engines := make(map[id.Node]*hier.Engine, n)
	for _, m := range members {
		m := m
		sim.AddNode(m, func(env proto.Env) proto.Handler {
			eng, err := hier.New(env, hier.Config{
				LocalGroup:     1,
				WideGroup:      2,
				Topology:       topo,
				StabilizeEvery: t7Stabilize,
				OnDeliver:      func(hier.Delivery) { delivered++ },
			})
			if err != nil {
				panic(err) // static topology always contains m
			}
			engines[m] = eng
			return eng
		})
	}

	payload := workload.New(seed + 7).Payload(64)
	var lastSend time.Duration
	for s := 0; s < t7Senders && s < n; s++ {
		// Spread senders across clusters, as runHier does.
		sender := members[(s*cluster+1)%n]
		arrivals := workload.Arrivals(seed+int64(s)*31, t7Gap, 10*time.Millisecond, t7PerSend)
		for _, at := range arrivals {
			if at > lastSend {
				lastSend = at
			}
			sim.At(at, func() { _ = engines[sender].Multicast(payload) })
		}
	}

	start := time.Now()
	sim.Run(lastSend + t7Tail)

	st := sim.Stats()
	r := recoveryResult{
		Delivered: delivered,
		Expected:  min(t7Senders, n) * t7PerSend * n,
		LostData:  st.DroppedByKind[wire.KindData] + st.DroppedByKind[wire.KindRelay],
		Wall:      time.Since(start),
	}
	for _, eng := range engines {
		c := eng.Counters()
		r.Requests += c.NacksSent
		r.Repairs += c.NacksServed
		r.Suppressed += c.NacksSuppressed
		r.LocalRepairs += c.LocalRepairs
	}
	return r
}

// perLoss normalizes an event count by the number of lost data datagrams.
func perLoss(events, lost uint64) string {
	if lost == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(events)/float64(lost))
}

// t7Row renders one T7 table row.
func t7Row(n int, config string, r recoveryResult) []string {
	return []string{
		fmt.Sprintf("%d", n), config,
		fmt.Sprintf("%d", r.LostData),
		perLoss(r.Requests, r.LostData),
		perLoss(r.Repairs, r.LostData),
		fmt.Sprintf("%d", r.Suppressed),
		fmt.Sprintf("%d", r.LocalRepairs),
		fmt.Sprintf("%.3f", float64(r.Delivered)/float64(r.Expected)),
	}
}

// T7RecoveryOverhead reproduces table T7: recovery requests and repairs
// per lost data datagram versus group size under correlated loss, for
// SRM-style randomized suppression with local repair in one flat group
// and scoped to clusters by the hierarchical organization. Suppression
// amortizes one multicast request over the whole loss domain, so its
// per-loss cost falls as the domain grows with n; inside clusters of 8
// the domain never grows. The per-receiver NACK baseline the engine used
// to carry asked about once per loss per gapped receiver regardless of n
// (EXPERIMENTS.md T7, historical rows).
func T7RecoveryOverhead(o Options) Table {
	sizes := []int{16, 64, 256, 1024}
	cluster := 8
	if o.Quick {
		sizes = []int{16, 64}
	}
	t := Table{
		ID: "T7",
		Title: fmt.Sprintf("Scalable recovery: requests/repairs per lost datagram (loss %.0f%%, %d loss domains)",
			t7Loss*100, t7Domains),
		Columns: []string{"n", "config", "losses", "req/loss", "repair/loss",
			"suppressed", "local", "delivery"},
	}
	for _, n := range sizes {
		seed := o.seed(1800 + int64(n))
		t.Rows = append(t.Rows, t7Row(n, fmt.Sprintf("hier(c=%d)", cluster),
			runHierRecovery(n, cluster, seed)))
		t.Rows = append(t.Rows, t7Row(n, "suppressed", runFlatRecovery(n, seed)))
	}
	return t
}
