#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags. Run from the repository root:
#
#   bash benchmark/run.sh --workload xfmr-pipe --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (compiler cache, binary,
# checkpoint files) stays under .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/pipemare-benchmark" .
exec "$build/pipemare-benchmark" -scratch "$build" "$@"
