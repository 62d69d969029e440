#!/usr/bin/env bash
# Builds the powerd benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload sim-small --seed 1 --seconds 10 --trace 0
# Run from the root of the checkout. Every build product, cache and trace
# file stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
