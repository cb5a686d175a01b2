#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload stream-ingest --seed 1 --seconds 25 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the stores' directories
# and the span dumps of traced runs. The build fails, and so does this
# script, when the repository's own module is not beside e2ebench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -C "$root/e2ebench" -o "$out/e2ebench" .
exec "$out/e2ebench" -dir "$out" "$@"
