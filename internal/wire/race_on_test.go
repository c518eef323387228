//go:build race

package wire

// raceEnabled reports whether the race detector is active; allocation
// pins skip under it, whose instrumentation allocates.
const raceEnabled = true
