# Tier-1 gate and common development targets. `make check` is what must
# pass before a change lands; see scripts/check.sh and the "Chaos &
# invariants" section of README.md.

.PHONY: check test race chaos chaos-wide fuzz bench bench-gate ab size

check:
	./scripts/check.sh

test:
	go test ./...

race:
	go test -race ./...

# Default seeded chaos sweep (200 seeds; 8 with -short via `make check`).
chaos:
	go test -count=1 ./internal/chaos

# Wider sweep for hunting rare schedules: 1 000 seeds, ≈ 10 s. Not part of
# `make check`: seeds 411 and 793 fail it ("no live nodes at end of run",
# ROADMAP items 1 and 17) until the view-change bugs behind them are fixed.
chaos-wide:
	go test -count=1 ./internal/chaos -run TestChaosSweep -chaos.seeds=1000

# Short fuzz pass over the wire codec, fragment reassembly and the bulk
# decoders.
fuzz:
	go test ./internal/wire -fuzz 'FuzzDecode$$' -fuzztime 30s
	go test ./internal/wire -fuzz 'FuzzDecodeBodies$$' -fuzztime 30s
	go test ./internal/wire -fuzz 'FuzzDecodeBatch$$' -fuzztime 30s
	go test ./internal/frag -fuzz 'FuzzReassemble$$' -fuzztime 30s
	go test ./internal/frag -fuzz 'FuzzSplitReassemble$$' -fuzztime 30s
	go test ./internal/bulk -fuzz 'FuzzDecodeManifest$$' -fuzztime 30s
	go test ./internal/bulk -fuzz 'FuzzOnMessage$$' -fuzztime 30s

bench:
	go test -bench=. -benchmem ./...

# Benchmark-regression gate: microbenchmarks (wall time included) + table
# benchmarks vs bench_baseline.json, writing BENCH_<pr>.json (see
# scripts/bench_gate.sh for how <pr> is derived).
bench-gate:
	./scripts/bench_gate.sh

# The benchmark's A/B protocol: PAIRS alternating pairs of one cmd/mmload
# workload, PARENT (a git ref, built in .bench_build/ab/) against this
# checkout with its uncommitted changes; medians, quartiles and pairs won
# per end-to-end metric. ≈ 1 min per pair. BENCH=BENCH_<pr>.json also
# merges them into that file as mmload/<workload> rows.
WORKLOAD ?= bulk-1m-udp
PARENT ?= HEAD
PAIRS ?= 10
BENCH ?=
ab:
	./scripts/ab_pairs.sh $(WORKLOAD) $(PARENT) $(PAIRS) $(BENCH)

# The size figures ROADMAP.md tracks (code lines, wire kinds, Config fields).
size:
	./scripts/size.sh
