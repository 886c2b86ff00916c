#!/usr/bin/env bash
# Builds the project under a sanitizer and runs the hardened-surface
# suites (ctest label "sanitize": kernels_test, simd_test, ops_test,
# nn_test, checkpoint_test, golden_test, serve_test,
# serve_telemetry_test, serve_sched_test, arena_test and oracle_test —
# the checkpoint parser fed untrusted bytes, the parallel kernels, every
# autograd op and BatchNorm path, the concurrent inference engine, the
# determinism oracle's every-method runs, and the tensor arena, whose
# pointer arithmetic over shared slabs is exactly what ASan is for; the
# address build poisons free arena extents so tensor overruns are still
# caught, and fills unfilled tensor storage with NaN so an element an op
# forgets to write fails the bitwise checks). The "thread" build is the
# TSan pass over the engine's request queue, weight-version swaps, a
# pooled backend driven by engine workers (oracle_test), and
# cross-thread arena frees.
#
# Usage: scripts/sanitize_tests.sh [address|undefined|thread]
set -euo pipefail

SANITIZER="${1:-address}"
BUILD_DIR="build-${SANITIZER}"

cmake -B "${BUILD_DIR}" -S . -DOODGNN_SANITIZE="${SANITIZER}"
# One compile job per CPU: an uncapped -j starts every translation unit
# at once, and sanitizer builds are memory-hungry.
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" -L sanitize --output-on-failure -j "$(nproc)"
