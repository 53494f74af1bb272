#!/usr/bin/env bash
# Builds and runs the benchmark harness from the root of a checkout. Every
# build product, cache and temporary file stays under .bench_build in the
# checkout; the toolchain neither downloads nor contacts a module proxy.
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare -a DIR -b DIR
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
