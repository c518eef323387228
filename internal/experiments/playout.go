package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rtx"
)

// playoutResult summarizes one media playout run.
type playoutResult struct {
	stats rtx.Stats
	sent  int
}

// runMedia streams telephone audio from src across link into one
// receiver configured by rc, the sender protecting blocks of rc.FECBlock
// frames when it is set, and returns what the receiver played.
func runMedia(link netsim.Link, src func(media.StreamSpec) media.Source, rc rtx.Config, seed int64) playoutResult {
	spec := media.TelephoneAudio(1, "mic")
	rc.Group, rc.Stream, rc.Spec = 1, spec.ID, spec
	net := chaos.NewNet(chaos.NetConfig{Seed: seed, Link: link})
	var sender *rtx.Sender
	var recv *rtx.Receiver
	net.AddNode(1, func(env proto.Env) proto.Handler {
		sender = rtx.NewSender(env, 1, spec)
		sender.SetPeers([]id.Node{2})
		if rc.FECBlock > 0 {
			_ = sender.SetFEC(rc.FECBlock)
		}
		return proto.NewMux()
	})
	net.AddNode(2, func(env proto.Env) proto.Handler {
		recv = rtx.NewReceiver(env, rc)
		return recv
	})
	frames := src(spec)
	var last time.Duration
	sent := 0
	for {
		f, ok := frames.Next()
		if !ok {
			break
		}
		sent++
		at := 10*time.Millisecond + f.Capture
		last = max(last, at)
		net.At(at, func() { sender.Send(f) })
	}
	net.Run(last + 2*time.Second)
	return playoutResult{stats: recv.Stats(), sent: sent}
}

// runPlayout streams a talkspurt voice source across a jittery link into
// one receiver with the given playout policy.
func runPlayout(jitter time.Duration, mode rtx.PlayoutMode, fixedDelay time.Duration,
	safety float64, packets int, seed int64) playoutResult {
	voice := func(spec media.StreamSpec) media.Source {
		return media.NewVoice(spec, 160, packets, time.Second, 1350*time.Millisecond, seed+3)
	}
	return runMedia(netsim.Link{Delay: 2 * time.Millisecond, Jitter: jitter}, voice,
		rtx.Config{Mode: mode, PlayoutDelay: fixedDelay, SafetyFactor: safety}, seed)
}

// lateFraction is the share of arrived frames that missed playout.
func (r playoutResult) lateFraction() float64 {
	if r.stats.Received == 0 {
		return 0
	}
	return float64(r.stats.Late) / float64(r.stats.Received)
}

// T5PlayoutLoss reproduces table T5: late-frame rate under increasing
// jitter for fixed versus adaptive playout.
func T5PlayoutLoss(o Options) Table {
	jitters := []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
	}
	packets := 800
	if o.Quick {
		// Keep the high-jitter points: they carry the comparison.
		jitters = []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
		packets = 200
	}
	const fixedDelay = 30 * time.Millisecond
	t := Table{
		ID:    "T5",
		Title: fmt.Sprintf("Playout: late frames vs jitter (voice, fixed delay %v)", fixedDelay),
		Columns: []string{"jitter (ms)", "fixed late %", "adaptive late %",
			"adaptive delay (ms)"},
	}
	for _, j := range jitters {
		fixed := runPlayout(j, rtx.FixedDelay, fixedDelay, 0, packets, o.seed(1200))
		adapt := runPlayout(j, rtx.Adaptive, fixedDelay, 0, packets, o.seed(1200))
		t.Rows = append(t.Rows, []string{
			ms(j),
			fmt.Sprintf("%.1f", fixed.lateFraction()*100),
			fmt.Sprintf("%.1f", adapt.lateFraction()*100),
			ms(adapt.stats.PlayoutDelay),
		})
	}
	return t
}

// F3AdaptivePlayout reproduces figure F3: the adaptive playout delay as a
// function of network jitter, plus the safety-factor (K) ablation.
func F3AdaptivePlayout(o Options) Figure {
	jitters := []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond,
	}
	packets := 600
	if o.Quick {
		jitters = []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
		packets = 150
	}
	f := Figure{
		ID:     "F3",
		Title:  "Adaptive playout delay vs jitter, with safety-factor ablation",
		XLabel: "jitter (ms)",
		YLabel: "converged playout delay (ms) / late %",
	}
	for _, k := range []float64{1, 2, 4, 8} {
		delayS := Series{Name: fmt.Sprintf("delay K=%g", k)}
		lateS := Series{Name: fmt.Sprintf("late%% K=%g", k)}
		for _, j := range jitters {
			r := runPlayout(j, rtx.Adaptive, 30*time.Millisecond, k, packets, o.seed(1300))
			x := float64(j) / float64(time.Millisecond)
			delayS.X = append(delayS.X, x)
			delayS.Y = append(delayS.Y, float64(r.stats.PlayoutDelay)/float64(time.Millisecond))
			lateS.X = append(lateS.X, x)
			lateS.Y = append(lateS.Y, r.lateFraction()*100)
		}
		f.Series = append(f.Series, delayS, lateS)
	}
	return f
}
