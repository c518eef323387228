#!/bin/sh
# check.sh — the repository's tier-1 gate. Every change must pass this
# before it lands: gofmt, vet, build, the short test suite under the race
# detector, and the short seeded chaos sweep. (-short skips the slow
# full-matrix sweeps and the benchmark gate; run `go test ./...` and
# scripts/bench_gate.sh for the long versions.) Run from the repo root:
#
#   ./scripts/check.sh
#
# The chaos sweep is deterministic: a failure prints the seed and a
# one-line repro command (e.g. `go test ./internal/chaos -run
# TestChaosSweep -chaos.seed=17`).
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l (tracked .go files)"
unformatted="$(git ls-files -z -- '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above are not formatted (gofmt -w <file>)" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# Cross-compile the portable transport path: the batched UDP data plane
# is Linux-only behind build tags, and these builds catch any stray
# Linux-ism leaking into the portable files. cmd/mmload is left out: the
# benchmark is Linux-only by design (its generator sleeps in
# syscall.Nanosleep) and owns its own directory.
portable="$(go list ./... | grep -v /cmd/mmload)"

echo "==> GOOS=darwin go build (all but cmd/mmload)"
GOOS=darwin go build $portable

echo "==> GOOS=windows go build (all but cmd/mmload)"
GOOS=windows go build $portable

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> short chaos sweep"
go test -short -count=1 ./internal/chaos

# Bounded slice of the T7 scalable-recovery experiment: one seed at
# n=256, full delivery plus a real request reduction against the recorded
# per-receiver NACK baseline. The 1024-node acceptance run lives in the
# full (non-short) suite.
echo "==> T7 recovery smoke (n=256)"
go test -count=1 -run 'TestT7Smoke256' ./internal/experiments

# Bulk-dissemination smoke: scatter a 128KB object to 64 members through
# 5% correlated loss with one relay crashed mid-transfer; every survivor
# must reconstruct and the bottleneck member must stay under 25% of the
# flat multicast sender cost.
echo "==> T9 bulk dissemination smoke (n=64, relay crash)"
go test -count=1 -run 'TestT9Smoke64' ./internal/experiments

# Overload-robustness smoke: 32 members with one receiver stalled 2.5s
# under a 16-message stability window; sender occupancy must stay at the
# window, sends must hit backpressure, and the laggard must not be
# evicted under ThrottleToSlowest.
echo "==> T10 overload smoke (n=32, one receiver stalled)"
go test -count=1 -run 'TestT10Smoke32' ./internal/experiments

# Total-order safety smoke: a 16-member group spraying four stream labels
# must deliver every message in one identical global sequence at every
# member, each sender in send order across labels (the pipelined range
# path through the one sequencer, under light loss).
echo "==> total-order smoke (n=16)"
go test -count=1 -run 'TestTotalOrderSmoke16' ./internal/experiments

# Total-order latency smoke: with the simulator making the runner's
# activation-end and ordering-window calls, a message into an idle group
# is delivered everywhere two link delays after the send, not at the
# sequencer's next tick (virtual time, hermetic).
echo "==> total-order idle latency smoke"
go test -count=1 -run 'TestTotalOrderIdleLatency' ./internal/rmcast

# View-change smoke: a 16-member total-order group loses its coordinator,
# which is also its sequencer, while every member multicasts. In the
# median of twelve seeds every survivor installs the view without it
# within SuspectAfter + 60 ms of the crash (detection plus one flush
# round), and in every seed within one JoinRetry more (virtual time).
echo "==> view change in one flush round (n=16, coordinator crash)"
go test -count=1 -run 'TestChaosViewChangeOneFlushRound' ./internal/chaos

echo "==> /metrics endpoint smoke test"
go test -count=1 -run 'TestMetricsEndpoint' .

# Self-healing membership smoke test: a 3-node group over live UDP where
# only the joiners hold the contact's static peer entry must converge via
# return-address learning and the view-body address exchange.
echo "==> self-healing membership smoke test"
go test -count=1 -run 'TestSelfConfiguringGroupOverUDP' .

# Self-organizing hierarchy smoke: 64 nodes across 8 latency sites form
# an agreed tree, lose an elected coordinator, and re-converge without it.
echo "==> auto-hier formation smoke (n=64)"
go test -count=1 -run 'TestAutoHierSmoke64' ./internal/hier

echo "All checks passed."
