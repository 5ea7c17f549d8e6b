#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash benchmark/run.sh --workload table1-behav --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the benchmark's temporary files stay
# in .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
