#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Run it
# from the root of a checkout; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload batch-paper --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, generated inputs and traces all stay under
# .bench_build/ in the checkout. Outside a full checkout the build fails, and
# so does this script, without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
