#!/usr/bin/env bash
# Builds joinbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/joinbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/cmd/joinbench" && go build -o "$build/joinbench" .)
exec "$build/joinbench" "$@"
