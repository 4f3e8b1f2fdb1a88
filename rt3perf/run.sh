#!/usr/bin/env bash
# Builds the rt3perf benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash rt3perf/run.sh --workload batch-decode --seed 1 --seconds 30 --trace 0
#
# Build cache, module path, temporary files, the binary and trace dumps
# all stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/rt3perf"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$(dirname "$0")" build -o "$out/rt3perf" .
exec "$out/rt3perf" "$@"
