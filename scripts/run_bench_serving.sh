#!/usr/bin/env bash
# Builds bench_serving and runs the open-loop serving load generator:
# capacity calibration, then Poisson arrival tiers at 0.5x / 0.8x /
# 1.2x of the calibrated saturation rate through the engine, with a
# heavy-tailed graph-size mix.
# Per tier it reports exact client-side span percentiles (p50/p95/p99
# for queue wait, batch build, execute and e2e), goodput (within-SLO
# completions/sec) and the queue-depth trajectory — the committed
# reference lives in BENCH_serving.json (override with OUT=path).
#
# THREADS defaults to 1 (the backend pool; workers batch on top of it),
# REQUESTS to 400 arrivals per tier.
#
# Usage: scripts/run_bench_serving.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
THREADS="${THREADS:-1}"
REQUESTS="${REQUESTS:-400}"
OUT="${OUT:-BENCH_serving.json}"

cmake -B "${BUILD_DIR}" -S . > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_serving > /dev/null

"${BUILD_DIR}/bench/bench_serving" --threads "${THREADS}" \
  --requests "${REQUESTS}" --json "${OUT}"
