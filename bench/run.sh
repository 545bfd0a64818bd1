#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside
# the checkout (binary, build cache and build temp all under
# .bench_build/, so nothing is written outside), then run it with the
# driver's arguments. `go run ./bench` does the same for a human and
# uses the ordinary Go build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
