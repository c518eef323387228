package main

import (
	"runtime"
	"time"
)

// liveProbe watches a live cluster from outside during the traced run's
// measured phase. At 100 Hz it times a Node.View() call on every node —
// the call queues behind whatever the node's single event loop is doing,
// so its duration is the time work waits for that loop. At 10 Hz it
// samples the sender's unstable-history gauge, the heap and the
// goroutine count.
type liveProbe struct {
	c        *cluster
	histNode int    // node ID whose rmcast.history_len is sampled
	extra    func() // optional workload sampler, called at 10 Hz

	stopCh chan struct{}
	done   chan struct{}

	waitUs         []float64
	histPeak       int64
	heapPeak       uint64
	goroutinesPeak int
}

func newLiveProbe(c *cluster, histNode int, extra func()) *liveProbe {
	return &liveProbe{c: c, histNode: histNode, extra: extra}
}

func (p *liveProbe) start() {
	p.stopCh = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

// stop ends the probe goroutine and waits for it.
func (p *liveProbe) stop() {
	close(p.stopCh)
	<-p.done
}

func (p *liveProbe) loop() {
	defer close(p.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
		}
		for _, n := range p.c.nodes {
			t0 := time.Now()
			n.View()
			p.waitUs = append(p.waitUs, float64(time.Since(t0))/1e3)
		}
		if i%10 != 0 {
			continue
		}
		if h := p.c.nodes[p.histNode-1].Snapshot().Gauges["rmcast.history_len"]; h > p.histPeak {
			p.histPeak = h
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > p.heapPeak {
			p.heapPeak = ms.HeapInuse
		}
		if g := runtime.NumGoroutine(); g > p.goroutinesPeak {
			p.goroutinesPeak = g
		}
		if p.extra != nil {
			p.extra()
		}
	}
}

// fill computes the per-layer metrics every live workload shares from
// the probe's samples, the registry counter deltas of the measured phase
// and what the process consumed over it.
func (p *liveProbe) fill(m map[string]float64, ctr map[string]float64, deliveries float64, use procUse) {
	m["noderun.probe_wait_us_p50"] = quantile(p.waitUs, 0.5)
	m["noderun.probe_wait_us_p99"] = quantile(p.waitUs, 0.99)

	gets := ctr["wire.pool.buf_gets"] + ctr["wire.pool.msg_gets"]
	m["wire.pool_miss_pct"] = 100 * ratio(ctr["wire.pool.buf_misses"]+ctr["wire.pool.msg_misses"], gets)

	m["transport.datagrams_per_delivery"] = ratio(ctr["transport.datagrams_sent"], deliveries)
	m["transport.bytes_per_delivery"] = ratio(ctr["transport.bytes_sent"], deliveries)
	m["transport.syscalls_per_datagram"] = ratio(
		ctr["transport.syscalls_tx"]+ctr["transport.syscalls_rx"],
		ctr["transport.datagrams_sent"]+ctr["transport.datagrams_recv"])
	m["transport.batch_fill_p50"] = p.c.nodes[p.histNode-1].Snapshot().Histograms["transport.batch_fill"].P50
	m["transport.rx_dropped"] = ctr["transport.rx_dropped"]
	m["transport.queue_drops"] = ctr["transport.queue_drops"]

	perK := func(name string) float64 { return 1000 * ratio(ctr[name], deliveries) }
	m["rmcast.order_ranges_per_kdelivery"] = perK("rmcast.order_ranges")
	m["rmcast.nacks_sent_per_kdelivery"] = perK("rmcast.nacks_sent")
	m["rmcast.retransmits_per_kdelivery"] = perK("rmcast.retransmits_recv")
	m["rmcast.nacks_suppressed_per_kdelivery"] = perK("rmcast.nacks_suppressed")
	m["rmcast.local_repairs_per_kdelivery"] = perK("rmcast.local_repairs")
	m["rmcast.history_len_peak"] = float64(p.histPeak)

	m["member.views_installed"] = ctr["member.views_installed"]
	m["member.proposals"] = ctr["member.proposals"]
	m["member.evictions"] = ctr["member.evictions"]

	fillRuntime(m, use, deliveries)
	m["runtime.heap_inuse_peak_mb"] = float64(p.heapPeak) / (1 << 20)
	m["runtime.goroutines_peak"] = float64(p.goroutinesPeak)
}

// fillRuntime reports what the process consumed per delivery. CPU time is
// reported here and not gated: on the shared reference host it drifted by
// up to 31 % between identical sets of runs (README.md, steadiness).
func fillRuntime(m map[string]float64, use procUse, deliveries float64) {
	m["runtime.cpu_us_per_delivery"] = ratio(float64(use.cpu)/1e3, deliveries)
	m["runtime.allocs_per_delivery"] = ratio(use.mallocs, deliveries)
	m["runtime.alloc_bytes_per_delivery"] = ratio(use.allocBytes, deliveries)
	m["runtime.gc_pause_ms_total"] = use.gcPauseNs / 1e6
}
