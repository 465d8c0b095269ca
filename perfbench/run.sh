#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through:
#
#   bash perfbench/run.sh --workload ingest|session|fleet --seed N --seconds S --trace 0|1
#
# Everything built or written stays under .bench_build in the current
# directory, the Go build cache included.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
