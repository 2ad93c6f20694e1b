#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary, trace files) stays under the
# build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go build -C "$root/bench" -o "$build/bin/linearbench" .
exec "$build/bin/linearbench" -root "$root" -out "$build" "$@"
