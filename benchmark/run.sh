#!/usr/bin/env bash
# Builds the benchmark from the checked-out sources and runs it; this is
# the `command` of BENCHMARK.json, run from the repository root:
#
#   bash benchmark/run.sh --workload norm_ibmps --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout, and nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/koala-benchmark" .
exec "$build/koala-benchmark" -out benchmark/out "$@"
