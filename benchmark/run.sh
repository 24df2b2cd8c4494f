#!/usr/bin/env bash
# Entry point of the benchmark (the command BENCHMARK.json names): build the
# harness from source into the checkout's .bench_build/, then hand it every
# argument. Build outputs and the Go build cache both stay inside the
# checkout, and nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

start=$(date +%s%N)
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
ns=$(($(date +%s%N) - start))
export BENCH_HARNESS_BUILD_S="$((ns / 1000000000)).$(printf '%09d' $((ns % 1000000000)))"

cd "$root"
exec "$build/bin/benchmark" "$@"
