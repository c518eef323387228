package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"scalamedia/internal/flightrec"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/msync"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/rtx"
	"scalamedia/internal/wire"
)

// Sync-scenario policy. The skew bound is generous relative to MaxSkew:
// the controller corrects at most one bounded step per check period, so
// under an adversarial drift + jitter burst the instantaneous skew can
// legitimately overshoot before the steering catches up.
const (
	msyncMaxSkew  = 40 * time.Millisecond
	msyncMaxStep  = 20 * time.Millisecond
	msyncCheck    = 50 * time.Millisecond
	msyncDuration = 12 * time.Second
	// msyncConverge is the grace period before the bound is enforced:
	// initial playout alignment plus burst recovery take a few correction
	// rounds.
	msyncConverge = 3 * time.Second
	msyncBound    = msyncMaxSkew + 3*msyncMaxStep
	// A loss burst can kick the adaptive playout point — or stall a
	// stream outright, freezing the last-played-pair measurement at a
	// spiked value — so instantaneous excursions past the bound carry no
	// verdict. The steering must pull the skew back under the bound
	// within msyncRecovery: the worst burst stall plus a ~200ms spike
	// corrected at the worst-case net rate (MaxStep per check, halved by
	// measurement lag, less the ongoing drift — at least 100ms/s). An
	// uncorrected drift of 10–60ms/s blows through this within a couple
	// of seconds, so the invariant keeps its teeth.
	msyncRecovery = 2 * time.Second
	// msyncCheckUntil ends the checked window before the sources run dry:
	// the audio master stops on schedule while the drifted video trickles
	// in late, so tail samples compare a frozen master lag against stale
	// video and measure termination, not steering.
	msyncCheckUntil = msyncDuration - 500*time.Millisecond
)

// SkewSample is one measured audio/video skew observation.
type SkewSample struct {
	At   time.Duration
	Skew time.Duration
}

// MsyncOptions parameterizes a media-synchronization run.
type MsyncOptions struct {
	// Seed fixes all randomness.
	Seed int64
	// Drift is how much later the video pipeline runs per second of
	// stream. Zero draws it from the seed: 10–60ms per second.
	Drift time.Duration
	// Duration is the length of both streams. Defaults to 12s.
	Duration time.Duration
	// Link, when set, replaces the lossy link and its seeded loss bursts
	// with this fixed link.
	Link netsim.Link
	// Unsynced runs the controller without its steering: the skew is
	// measured, never corrected.
	Unsynced bool
	// SampleEvery, when set, samples the skew on the receiver's tick at
	// that period instead of at every controller check, so that an
	// unsynced run has samples too.
	SampleEvery time.Duration
}

// MsyncTrace records a media-synchronization scenario run.
type MsyncTrace struct {
	Seed        int64
	DriftPerSec time.Duration
	Samples     []SkewSample
	Corrections uint64
	// Flight is the run's shared flight recorder; see Trace.Flight.
	Flight *flightrec.Recorder
}

// RunMsync executes one seeded inter-media synchronization scenario: an
// audio stream (master) and a video stream whose pipeline drifts, by
// default a seeded 10–60ms per second over a lossy jittery link with
// seeded loss bursts, with the msync controller steering the playout
// points. The trace records every skew sample for the bounded-skew
// invariant.
func RunMsync(o MsyncOptions) *MsyncTrace {
	if o.Duration <= 0 {
		o.Duration = msyncDuration
	}
	rng := rand.New(rand.NewSource(o.Seed))
	tr := &MsyncTrace{
		Seed:        o.Seed,
		DriftPerSec: o.Drift,
		Flight:      flightrec.New(8192),
	}
	if o.Drift == 0 {
		tr.DriftPerSec = 10*time.Millisecond + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
	}
	bursty := o.Link == netsim.Link{}
	if bursty {
		o.Link = netsim.Link{Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.01}
	}
	sim := NewNet(NetConfig{Seed: o.Seed, Link: o.Link})

	audioSpec := media.TelephoneAudio(1, "mic")
	videoSpec := media.PALVideo(2, "cam")

	var audioSend, videoSend *rtx.Sender
	sim.AddNode(1, func(env proto.Env) proto.Handler {
		audioSend = rtx.NewSender(env, 1, audioSpec)
		audioSend.SetPeers([]id.Node{2})
		videoSend = rtx.NewSender(env, 1, videoSpec)
		videoSend.SetPeers([]id.Node{2})
		return proto.NewMux()
	})

	tick := &syncTick{steer: !o.Unsynced, every: o.SampleEvery, sample: func(skew time.Duration) {
		tr.Samples = append(tr.Samples, SkewSample{At: sim.Elapsed(), Skew: skew})
	}}
	sim.AddNode(2, func(env proto.Env) proto.Handler {
		audioRecv := rtx.NewReceiver(env, rtx.Config{
			Group: 1, Stream: 1, Spec: audioSpec,
			Mode: rtx.Adaptive, PlayoutDelay: 40 * time.Millisecond,
			Flight: tr.Flight,
			OnPlay: func(f media.Frame, at time.Time) { tick.ctl.ObserveMaster(f, at) },
		})
		videoRecv := rtx.NewReceiver(env, rtx.Config{
			Group: 1, Stream: 2, Spec: videoSpec,
			Mode: rtx.Adaptive, PlayoutDelay: 40 * time.Millisecond,
			Flight: tr.Flight,
			OnPlay: func(f media.Frame, at time.Time) { tick.ctl.ObserveSlave(0, f, at) },
		})
		cfg := msync.Config{
			MaxSkew:    msyncMaxSkew,
			MaxStep:    msyncMaxStep,
			CheckEvery: msyncCheck,
			Flight:     tr.Flight,
		}
		if tick.every == 0 {
			cfg.OnSkew = func(_ int, skew time.Duration, _ time.Time) { tick.sample(skew) }
		}
		tick.ctl = msync.New(cfg, audioRecv, videoRecv)
		return proto.NewMux(audioRecv, videoRecv, tick)
	})

	// Seeded loss/jitter bursts across the run.
	for at := time.Duration(rng.Int63n(int64(2 * time.Second))); bursty && at < o.Duration; {
		dur := 200*time.Millisecond + time.Duration(rng.Int63n(int64(600*time.Millisecond)))
		burst := o.Link
		burst.Loss = 0.05 + 0.15*rng.Float64()
		burst.Jitter = 8 * time.Millisecond
		sim.At(at, func() { sim.cur = burst })
		sim.At(at+dur, func() { sim.cur = sim.base })
		at += dur + 500*time.Millisecond + time.Duration(rng.Int63n(int64(1500*time.Millisecond)))
	}

	// Media sources: audio on time, video drifting ever later.
	audioSrc := media.NewCBR(audioSpec, 160, int(o.Duration/(20*time.Millisecond)))
	for {
		f, ok := audioSrc.Next()
		if !ok {
			break
		}
		sim.At(10*time.Millisecond+f.Capture, func() { audioSend.Send(f) })
	}
	videoSrc := media.NewCBR(videoSpec, 2000, int(o.Duration/(40*time.Millisecond)))
	for {
		f, ok := videoSrc.Next()
		if !ok {
			break
		}
		lag := time.Duration(float64(tr.DriftPerSec) * f.Capture.Seconds())
		sim.At(10*time.Millisecond+f.Capture+lag, func() { videoSend.Send(f) })
	}

	sim.Run(o.Duration + time.Second)
	tr.Corrections = tick.ctl.Corrections()
	return tr
}

// Violations checks the bounded-skew invariant: after the convergence
// grace period, every measured |skew| stays within MaxSkew plus a few
// correction steps — transient excursions past that bound (a loss burst
// shifting the adaptive playout point or stalling a stream) are
// tolerated only if they recover within msyncRecovery — and the
// controller actually worked (drift of tens of ms/s over many seconds
// far exceeds the bound uncorrected).
func (tr *MsyncTrace) Violations() []string {
	var out []string
	if len(tr.Samples) == 0 {
		return []string{"progress: no skew samples recorded"}
	}
	checked := 0
	excursion := time.Duration(-1) // start of the current out-of-bound spell
	for _, s := range tr.Samples {
		if s.At < msyncConverge || s.At > msyncCheckUntil {
			continue
		}
		checked++
		abs := s.Skew
		if abs < 0 {
			abs = -abs
		}
		if abs > msyncBound {
			if excursion < 0 {
				excursion = s.At
			}
			if s.At-excursion > msyncRecovery {
				out = append(out, fmt.Sprintf(
					"bounded-skew: |%v| > %v for over %v at t=%v (drift %v/s)",
					s.Skew, msyncBound, msyncRecovery, s.At, tr.DriftPerSec))
			}
		} else {
			excursion = -1
		}
	}
	if checked == 0 {
		out = append(out, "progress: no skew samples after convergence window")
	}
	if tr.Corrections == 0 {
		out = append(out, fmt.Sprintf(
			"progress: controller never corrected under %v/s drift", tr.DriftPerSec))
	}
	return out
}

// syncTick is the receiver's tick handler: the controller's check when
// it steers, then the skew sample every period when one is set.
type syncTick struct {
	ctl    *msync.Controller
	steer  bool
	every  time.Duration
	last   time.Time
	sample func(skew time.Duration)
}

func (t *syncTick) OnMessage(id.Node, *wire.Message) {}

func (t *syncTick) OnTick(now time.Time) {
	if t.steer {
		t.ctl.OnTick(now)
	}
	if t.every == 0 || now.Sub(t.last) < t.every {
		return
	}
	t.last = now
	if skew, ok := t.ctl.Skew(0); ok {
		t.sample(skew)
	}
}
