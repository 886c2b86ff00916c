#!/usr/bin/env bash
# Builds bench_inference and runs the serving-path comparison: taped vs
# no-grad forwards, the scalar-vs-SIMD forward (DESIGN.md §16), then
# the engine's latency percentiles and pooled throughput. Engine
# outputs are checked bitwise against the tape-based reference. Emits
# the tables on stdout and the machine-readable report to
# BENCH_inference.json (override with OUT=path). THREADS defaults to 4, matching the benchmark's default
# backend pool.
#
# Usage: scripts/run_bench_inference.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
THREADS="${THREADS:-4}"
OUT="${OUT:-BENCH_inference.json}"

cmake -B "${BUILD_DIR}" -S . > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_inference > /dev/null

"${BUILD_DIR}/bench/bench_inference" --threads "${THREADS}" \
  --json "${OUT}"
