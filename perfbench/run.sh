#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced runs' Chrome traces go
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Everything the go command would write under $HOME (build cache, module
# cache, GOPATH, telemetry counters) is kept inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -out "$out/perfbench-out" "$@"
