#!/usr/bin/env bash
# The command BENCHMARK.json names: build cmd/mmload from source and run it
# with the arguments the driver appends (--workload --seed --seconds --trace).
# Run from the root of a checkout. The build, the Go build cache and the
# module cache all stay inside the checkout, under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -o "$build/mmload" ./cmd/mmload
exec "$build/mmload" "$@"
