#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run from
# the repository root:
#
#   bash hmvpbench/run.sh --workload solo-4096 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run reports stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# fails, and nothing is printed on standard output, when the repository's
# own sources are missing.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off

(cd "$root/hmvpbench" && go build -o "$build/hmvpbench" .) >&2
exec "$build/hmvpbench" -out "$build/hmvpbench-runs" "$@"
