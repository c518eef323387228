package main

import (
	"math/rand"
	"time"

	"scalamedia"
	"scalamedia/internal/media"
	"scalamedia/internal/transport"
	"scalamedia/internal/workload"
)

// The conference workload: six nodes on the seeded in-process fabric with
// the link of examples/conference (3 ms delay, 12 ms jitter, 2 % loss).
// Node 1 sends 500 reliable 256 B messages a second, open loop, and
// publishes a telephone-audio and a PAL VBR video stream with FEC and
// fragmentation; the other five play both with adaptive playout,
// reassembly and lip-sync.
const (
	confNodes    = 6
	confRate     = 500
	confPayload  = 256
	confFECBlock = 4
	confMaxFrag  = 1200
	confCapacity = 500_000 // bytes/s of media each node may source
)

var confLink = transport.LinkConfig{Delay: 3 * time.Millisecond, Jitter: 12 * time.Millisecond, Loss: 0.02}

var confParams = msgParams{ordering: scalamedia.FIFO, nodes: confNodes, senders: []int{1}, payload: confPayload, rateA: confRate}

// played is one frame handed to a receiver's OnPlay.
type played struct {
	ts    uint32
	at    int64 // callback instant, ns since base
	bytes int
}

// listener is one receiving node's media side. Its play logs are written
// by the node's event loop only and read after the node has closed.
type listener struct {
	audio, video *scalamedia.MediaReceiver
	sync         *scalamedia.SyncGroup
	audioPlays   []played
	videoPlays   []played
}

// conference is a started instance of the workload.
type conference struct {
	g            *msgGroup
	audio, video *scalamedia.MediaSender
	audioSpec    scalamedia.StreamSpec
	videoSpec    scalamedia.StreamSpec
	listeners    []*listener // nodes 2..n
}

func (c *conference) close() { c.g.close() }

// startConference starts the group and opens every stream, receiver and
// sync group: all of it is set-up.
func startConference(rc *runCtx, tr *tracer) (*conference, error) {
	g := &msgGroup{wake: make(chan struct{}, 1)}
	for i := 1; i <= confNodes; i++ {
		g.recs = append(g.recs, &msgRec{self: i, tr: tr, base: rc.base, wake: g.wake})
	}
	// The group forms on the link without its loss and the loss is
	// switched on afterwards: with it, a lost join message waits out a
	// retry timer and set-up time jumps between 0.07, 0.16, 0.26 and
	// 0.67 s from one start to the next (see README.md, findings).
	link := confLink
	link.Loss = 0
	cl, err := startCluster(clusterSpec{
		n: confNodes, ordering: scalamedia.FIFO, link: &link, fabricSeed: rc.seed,
		tick: 5 * time.Millisecond, mediaCapacity: confCapacity, tracer: tr,
		onEvent: func(node int) func(scalamedia.Event) { return g.recs[node-1].onEvent },
	})
	if err != nil {
		return nil, err
	}
	g.c = cl
	c := &conference{g: g, audioSpec: media.TelephoneAudio(1, "speaker-mic"), videoSpec: media.PALVideo(2, "speaker-cam")}
	fail := func(err error) (*conference, error) {
		c.close()
		return nil, err
	}
	speaker := cl.nodes[0]
	if c.audio, err = speaker.OpenSender(c.audioSpec, 8_000); err != nil {
		return fail(err)
	}
	if c.video, err = speaker.OpenSender(c.videoSpec, 60_000); err != nil {
		return fail(err)
	}
	for _, ms := range []*scalamedia.MediaSender{c.audio, c.video} {
		if err := ms.EnableFEC(confFECBlock); err != nil {
			return fail(err)
		}
	}
	c.video.SetMaxFragment(confMaxFrag)
	for _, n := range cl.nodes[1:] {
		l := &listener{}
		open := func(spec scalamedia.StreamSpec, reassemble bool, log *[]played) (*scalamedia.MediaReceiver, error) {
			return n.OpenReceiver(scalamedia.ReceiverConfig{
				Spec: spec, Mode: scalamedia.Adaptive, PlayoutDelay: 40 * time.Millisecond,
				FECBlock: confFECBlock, Reassemble: reassemble,
				OnPlay: func(f scalamedia.Frame, _ time.Time) {
					*log = append(*log, played{f.TS, int64(time.Since(rc.base)), len(f.Data)})
				},
			})
		}
		if l.audio, err = open(c.audioSpec, false, &l.audioPlays); err != nil {
			return fail(err)
		}
		if l.video, err = open(c.videoSpec, true, &l.videoPlays); err != nil {
			return fail(err)
		}
		if l.sync, err = n.Synchronize(0, l.audio, l.video); err != nil {
			return fail(err)
		}
		c.listeners = append(c.listeners, l)
	}
	for a := 1; a <= confNodes; a++ {
		for b := a + 1; b <= confNodes; b++ {
			cl.fab.SetLinkBoth(scalamedia.NodeID(a), scalamedia.NodeID(b), confLink)
		}
	}
	return c, nil
}

// confGen extends the message generator with the two media sources. One
// goroutine sends all three flows in due-time order.
type confGen struct {
	*msgGen
	c          *conference
	start      time.Duration // media clock origin, since base
	voice, vbr media.Source
	fill       *rand.Rand
	measuring  bool

	// Frames of the measured phase, by media timestamp: when each was due.
	audioDue, videoDue map[uint32]int64
	rejects            int
	frameCallUs        []float64 // time inside MediaSender.Send
}

// sendFrame sends one media frame, due at the given instant.
func (g *confGen) sendFrame(ms *scalamedia.MediaSender, f scalamedia.Frame, due time.Duration, log map[uint32]int64) {
	g.fill.Read(f.Data) //nolint:errcheck // math/rand Read never fails
	t0 := time.Now()
	ok := ms.Send(f)
	if g.tr != nil {
		g.frameCallUs = append(g.frameCallUs, float64(time.Since(t0))/1e3)
	}
	if !ok {
		g.rejects++
		return
	}
	if g.measuring {
		log[f.TS] = int64(due)
	}
}

// run sends the three flows until d has passed on the media clock,
// reliable messages tagged with phase.
func (g *confGen) run(phase int, until time.Duration, arrivals *workload.Poisson, next *[3]time.Duration, af, vf *scalamedia.Frame) {
	for {
		// The earliest due flow goes next: 0 reliable, 1 audio, 2 video.
		k := 0
		for i := 1; i < 3; i++ {
			if next[i] < next[k] {
				k = i
			}
		}
		if next[k] >= until {
			return
		}
		due := g.start + next[k]
		waitUntil(g.rc.base, due)
		switch k {
		case 0:
			g.send(phase, int64(due))
			next[0] = arrivals.Next()
		case 1:
			g.sendFrame(g.c.audio, *af, due, g.audioDue)
			*af, _ = g.voice.Next()
			next[1] = af.Capture
		case 2:
			g.sendFrame(g.c.video, *vf, due, g.videoDue)
			*vf, _ = g.vbr.Next()
			next[2] = vf.Capture
		}
	}
}

// confOutcome is what one conference pass measured.
type confOutcome struct {
	lat         []timed
	msgDeliv    float64 // reliable deliveries of the measured phase, all nodes
	framesSent  float64 // audio + video frames of the measured phase
	framesPlay  float64 // of those, played at some receiver, summed over receivers
	playBytes   float64
	videoSent   float64
	playoutMs   []float64 // video: due -> OnPlay
	secs        float64
	use         procUse
	counters    map[string]float64
	gen         *confGen
	stats       []scalamedia.MediaStats // per listener: audio then video
	corrections float64
}

// runConfPhases drives warm-up and the measured phase over a started
// conference, waits for the last frames to play, closes it and checks the
// reliable flow.
func runConfPhases(rc *runCtx, c *conference, tr *tracer, d time.Duration, probe *liveProbe) confOutcome {
	mg := &msgGen{rc: rc, p: confParams, g: c.g, tr: tr, seq: make([]uint64, confNodes+1)}
	mg.buf = workload.New(rc.seed + 3).Payload(confPayload)
	gen := &confGen{
		msgGen: mg, c: c, start: time.Since(rc.base),
		// Sources run far past any run length; 160 B voice packets in
		// talkspurts, 25 fps VBR video with a large intra frame every 12.
		voice:    media.NewVoice(c.audioSpec, 160, 1<<30, 900*time.Millisecond, 1200*time.Millisecond, rc.seed+21),
		vbr:      media.NewVBR(c.videoSpec, 1500, 7000, 12, 1<<30, rc.seed+22),
		fill:     rand.New(rand.NewSource(rc.seed + 23)),
		audioDue: make(map[uint32]int64), videoDue: make(map[uint32]int64),
	}
	arrivals := workload.NewPoisson(rc.seed+12, time.Second/confRate, 0)
	af, _ := gen.voice.Next()
	vf, _ := gen.vbr.Next()
	next := [3]time.Duration{arrivals.Next(), af.Capture, vf.Capture}

	// The adaptive playout buffers settle over the first talkspurts, so
	// this workload warms up three times as long as the messaging ones.
	warm := 3 * rc.sz.warm
	gen.run(phaseWarm, warm, arrivals, &next, &af, &vf)

	out := confOutcome{gen: gen}
	ctrBefore := c.g.c.counters()
	if probe != nil {
		probe.start()
	}
	before := sampleProc()
	gen.measuring = true
	gen.run(phaseA, warm+d, arrivals, &next, &af, &vf)
	gen.measuring = false
	drained := gen.drain()
	// Frames play one playout delay after capture; give the last ones
	// that long before reading the logs.
	time.Sleep(300 * time.Millisecond)
	out.use.add(before, sampleProc())
	if probe != nil {
		probe.stop()
	}
	out.secs = d.Seconds()
	out.counters = counterDelta(ctrBefore, c.g.c.counters())
	for _, l := range c.listeners {
		out.stats = append(out.stats, l.audio.Stats(), l.video.Stats())
		out.corrections += float64(l.sync.Corrections())
	}
	if !drained {
		rc.failf("drain: slowest node delivered %d of %d after %v", c.g.minDelivered(), gen.sent, rc.sz.drain)
	}
	rc.checkLate(gen.lateMaxMs, warm+d)
	c.close() // event loops have exited: recorders and play logs are ours

	lat, count := c.g.collect(rc, gen.seq)
	out.lat, out.msgDeliv = lat, count[phaseA]
	rc.checkNoEvictions(out.counters)
	out.framesSent = float64(len(gen.audioDue) + len(gen.videoDue))
	out.videoSent = float64(len(gen.videoDue))
	for _, l := range c.listeners {
		for _, p := range l.audioPlays {
			if _, ok := gen.audioDue[p.ts]; ok {
				out.framesPlay++
				out.playBytes += float64(p.bytes)
			}
		}
		for _, p := range l.videoPlays {
			if due, ok := gen.videoDue[p.ts]; ok {
				out.framesPlay++
				out.playBytes += float64(p.bytes)
				out.playoutMs = append(out.playoutMs, float64(p.at-due)/1e6)
			}
		}
	}
	rc.out.Attempted += int(gen.sent)*confNodes + gen.sendErrs
	return out
}

func runConference(rc *runCtx) error {
	m := rc.out.Metrics
	if !rc.traced {
		c, setups, err := repeatSetup(rc.sz.setups,
			func() (*conference, error) { return startConference(rc, nil) },
			(*conference).close)
		if err != nil {
			return err
		}
		o := runConfPhases(rc, c, nil, rc.dur, nil)
		deliveries := o.msgDeliv + o.framesPlay
		m["setup_s"] = quantile(setups, 0.5)
		m["deliver_p50_ms"] = windowQuantile(o.lat, 0.5)
		m["deliver_p90_ms"] = windowQuantile(o.lat, 0.9)
		m["deliveries_per_s"] = ratio(deliveries, o.secs)
		m["allocs_per_delivery"] = ratio(o.use.mallocs, deliveries)
		m["goodput_MBps"] = ratio(o.msgDeliv*confPayload+o.playBytes, o.secs) / 1e6
		m["datagrams_per_delivery"] = ratio(o.counters["transport.datagrams_sent"], deliveries)
		m["delivered_pct"] = 100 * ratio(o.framesPlay, o.framesSent*float64(len(c.listeners)))
		return nil
	}

	ref, err := startConference(rc, nil)
	if err != nil {
		return err
	}
	refOut := runConfPhases(rc, ref, nil, rc.dur/4, nil)

	rc.tr = newTracer(rc.base)
	c, err := startConference(rc, rc.tr)
	if err != nil {
		return err
	}
	var skews []float64
	probe := newLiveProbe(c.g.c, 1, func() {
		for _, l := range c.listeners {
			if d, ok := l.sync.Skew(0); ok {
				skews = append(skews, float64(d.Abs())/1e6)
			}
		}
	})
	o := runConfPhases(rc, c, rc.tr, rc.dur/2, probe)
	deliveries := o.msgDeliv + o.framesPlay

	fillTraced(rc, c.g.c, o.lat, refOut.lat)
	m["api.send_call_us_p50"] = quantile(o.gen.sendCallUs, 0.5)
	m["api.gen_late_ms_max"] = o.gen.lateMaxMs
	probe.fill(m, o.counters, deliveries, o.use)

	m["rtx.send_call_us_p50"] = quantile(o.gen.frameCallUs, 0.5)
	m["media.played_pct"] = 100 * ratio(o.framesPlay, o.framesSent*float64(len(c.listeners)))
	m["media.playout_ms_p50"] = quantile(o.playoutMs, 0.5)
	var recv, late, lost, recovered, incomplete, delay, jitter float64
	for i, st := range o.stats {
		recv += float64(st.Received)
		late += float64(st.Late)
		lost += float64(st.Lost)
		recovered += float64(st.Recovered)
		incomplete += float64(st.FramesIncomplete)
		if i%2 == 1 { // the video receivers
			delay += float64(st.PlayoutDelay) / 1e6
			jitter += st.JitterEstimate
		}
	}
	m["media.late_frames_pct"] = 100 * ratio(late, recv)
	m["media.frames_lost_pct"] = 100 * ratio(lost, recv+lost)
	m["media.fec_recovered_per_lost"] = ratio(recovered, lost)
	m["frag.frames_incomplete_pct"] = 100 * ratio(incomplete, o.videoSent*float64(len(c.listeners)))
	m["rtx.playout_delay_ms_final"] = delay / float64(len(c.listeners))
	m["rtx.jitter_estimate_ms"] = jitter / float64(len(c.listeners))
	m["qos.policer_rejects"] = float64(o.gen.rejects)
	m["msync.skew_abs_p90_ms"] = quantile(skews, 0.9)
	m["msync.corrections"] = o.corrections
	driveXor(m, 160, confFECBlock)
	return nil
}
