#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload annotate --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output, the Go build cache and the
# benchmark's scratch state stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
