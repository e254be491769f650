#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload chat-async --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ at the root of the checkout. The build needs the waggle
# module one directory up; without it the build fails and nothing runs.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/waggle-bench" .)
exec "$out/waggle-bench" -work "$out/work" "$@"
