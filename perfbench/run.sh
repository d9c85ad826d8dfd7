#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything the build writes (compiler
# cache, module cache, binary, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no go.mod; run from the root of a full checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
