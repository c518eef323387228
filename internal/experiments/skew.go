package experiments

import (
	"fmt"
	"time"

	"scalamedia/internal/chaos"
	"scalamedia/internal/netsim"
)

// runSkew streams synchronized audio+video with a drifting video pipeline
// over a quiet LAN and returns the skew sampled every 100ms, with or
// without the sync controller steering.
func runSkew(withSync bool, driftPerSec time.Duration, dur time.Duration, seed int64) Series {
	tr := chaos.RunMsync(chaos.MsyncOptions{
		Seed:        seed,
		Drift:       driftPerSec,
		Duration:    dur,
		Link:        netsim.Link{Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
		Unsynced:    !withSync,
		SampleEvery: 100 * time.Millisecond,
	})
	name := "no-sync"
	if withSync {
		name = "sync"
	}
	out := Series{Name: fmt.Sprintf("%s drift=%v/s", name, driftPerSec)}
	for _, s := range tr.Samples {
		out.X = append(out.X, s.At.Seconds())
		out.Y = append(out.Y, float64(s.Skew)/float64(time.Millisecond))
	}
	return out
}

// F4MediaSkew reproduces figure F4: audio/video skew over time with the
// synchronization protocol on and off, under a drifting video pipeline.
func F4MediaSkew(o Options) Figure {
	drift := 30 * time.Millisecond // per second of stream
	dur := 15 * time.Second
	if o.Quick {
		dur = 5 * time.Second
	}
	return Figure{
		ID:     "F4",
		Title:  "Inter-media skew over time (video pipeline drifting)",
		XLabel: "time (s)",
		YLabel: "skew (ms, video later positive)",
		Series: []Series{
			runSkew(false, drift, dur, o.seed(1400)),
			runSkew(true, drift, dur, o.seed(1400)),
		},
	}
}
