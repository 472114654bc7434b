#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload flows_1hop --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh compare runs/parent runs/change
#
# Run it from the repository root. Every build output, the Go build cache
# and span files stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$root/benchmark" build -o "$out/cronets-bench" .
exec "$out/cronets-bench" "$@"
