//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// preciseSleep blocks the calling thread in nanosleep(2). A Go timer
// would do, but an idle Go scheduler waits in epoll with a millisecond
// timeout, so time.Sleep wakes 0.5 to 1 ms late on the reference host —
// six times the loopback latency the open-loop generator is there to
// measure. The kernel's high-resolution timer wakes within its 50 us
// slack.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is retried by the caller
}
