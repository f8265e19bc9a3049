#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload coll-sweep --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -all
#
# Everything the build writes (Go build cache, module cache, the binary) stays
# under .bench_build/ in the checkout; nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
export HOME="${HOME:-$root/.bench_build}"
# `go build` decides staleness itself: a no-op when the sources are unchanged.
(cd "$root/benchmark" && go build -o "$root/.bench_build/cafbench" .)
exec "$root/.bench_build/cafbench" "$@"
