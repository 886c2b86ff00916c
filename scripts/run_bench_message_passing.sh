#!/usr/bin/env bash
# Builds bench_kernels and runs the message-passing comparison: the
# planned scatter and the fused gather-scatter over CSR segment plans
# (DESIGN.md §12) at feature widths 1/16/64, serial and pooled. Emits
# the table on stdout and the machine-readable report to
# BENCH_message_passing.json (override with OUT=path). THREADS
# defaults to the machine's core count. Exits nonzero when a result
# diverges bitwise.
#
# Usage: scripts/run_bench_message_passing.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
THREADS="${THREADS:-$(nproc)}"
OUT="${OUT:-BENCH_message_passing.json}"

cmake -B "${BUILD_DIR}" -S . > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_kernels > /dev/null

"${BUILD_DIR}/bench/bench_kernels" --mp --threads "${THREADS}" \
  --mp-json "${OUT}"
