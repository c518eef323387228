//go:build !unix

package main

import "time"

// processCPU is unavailable here; CPU metrics read 0.
func processCPU() time.Duration { return 0 }

// preciseSleep falls back to the runtime's timer.
func preciseSleep(d time.Duration) { time.Sleep(d) }
