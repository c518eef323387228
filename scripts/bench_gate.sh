#!/usr/bin/env bash
# Benchmark-regression gate: re-runs the data-plane microbenchmarks
# (including the UDP batch/fallback throughput pair, the netsim
# node-step cost and the total-order multicast path) plus the
# table benchmarks (T2b adds the sustained total-order
# throughput metric, gated higher-is-better; T10 adds the
# sender-history-peak bounded-memory metric), writes the results to
# BENCH_<pr>.json, and fails on a regression against the checked-in
# bench_baseline.json (allocations, bytes and — here only, not in the
# default `go test ./...` run — wall time for the microbenchmarks;
# deterministic domain metrics for the tables). Wall time is only
# comparable against a baseline from the same host: refresh it first when
# the host changed.
#
# <pr> is the number in ISSUE.md's title ("# ISSUE 14 ..."), or one past
# the newest BENCH_<n>.json when there is no ISSUE.md; BENCH_OUT overrides
# the whole name. Commit the file with every perf-affecting PR. A PR that
# claims a gain on a cmd/mmload workload adds that workload's before/after
# rows to the file afterwards, as "mmload/<workload>/before" and "/after":
# `scripts/ab_pairs.sh <workload> <parent> <pairs> BENCH_<pr>.json` runs
# the alternating pairs and merges their medians and quartiles in. This
# script does not run the live benchmark, and it rewrites the whole file,
# so run it first.
#
# After an intentional performance change, refresh the baseline with:
#   BENCH_BASELINE_UPDATE=1 go test -run 'TestBenchGate$' -count=1 .
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${BENCH_OUT:-}" ]; then
	pr="$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md 2>/dev/null || true)"
	if [ -z "$pr" ]; then
		last="$(ls BENCH_*.json 2>/dev/null | sed 's/^BENCH_\([0-9]*\)\.json$/\1/' | sort -n | tail -1)"
		pr=$(( ${last:-0} + 1 ))
	fi
	BENCH_OUT="BENCH_${pr}.json"
fi
echo "bench_gate: writing ${BENCH_OUT}"

BENCH_OUT="$BENCH_OUT" go test -run 'TestBenchGate$' -count=1 -v . "$@"
