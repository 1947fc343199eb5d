#!/usr/bin/env bash
# bench_check.sh — the benchmark-regression gate (docs/OBSERVABILITY.md).
#
# Runs the engine micro-benchmarks fresh (five samples each at
# GOMAXPROCS=1), converts them with benchjson
# (which stamps git commit, engine version, and GOMAXPROCS into the
# context block), and diffs sim-instrs/s against the committed baseline
# BENCH_engine.json with cmd/benchcheck. Exits non-zero on a >15%
# regression unless -warn-only is passed (CI's noise-tolerant mode).
#
# Usage:
#   scripts/bench_check.sh               # hard gate
#   scripts/bench_check.sh -warn-only    # annotate only
# Extra args are passed through to benchcheck (e.g. -tolerance 0.25).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Default benchtime (not -benchtime 3x): the engine benches are sub-ms
# per op, and the gate needs ~1s of iterations for a stable number.
# -cpu 1 keeps the names free of a -N GOMAXPROCS suffix, matching the
# baseline taken at GOMAXPROCS=1; -count 5 takes five samples per
# benchmark, which benchjson collapses to their median.
go test -run '^$' -cpu 1 -count 5 -bench 'BenchmarkEngineStep|BenchmarkRunOutageFree|BenchmarkRunRFHome|BenchmarkRunRFHomeNVP' . \
  | go run ./cmd/benchjson -o "$tmp"

go run ./cmd/benchcheck -baseline BENCH_engine.json -current "$tmp" "$@"
