#!/usr/bin/env bash
# Builds bench_inference and runs its two forward-pass comparisons:
# taped vs no-grad, and scalar vs SIMD (DESIGN.md §16), each checked
# bitwise. Emits the tables on stdout and the machine-readable report
# to BENCH_inference.json (override with OUT=path). THREADS defaults to
# 4, matching the benchmark's default backend pool. Serving is
# benchmarked by perfbench's serve-tri-open workload
# (perfbench/README.md).
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
