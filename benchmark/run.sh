#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given:
#
#   bash benchmark/run.sh --workload cold_cg --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# The checkout under test is usually not a git repository; the commit is
# only a label in the run header.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

go build -o "$build/pibench" ./benchmark
exec "$build/pibench" "$@"
