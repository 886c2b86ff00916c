#!/usr/bin/env bash
# Fails when an object built with vector ISA flags (-mavx2, -mavx512f)
# defines a weak or unique symbol.
#
# An inline or template function with external linkage (a std::vector
# member, an inline header function left out of line) is emitted as a
# weak or unique symbol in every object that uses it, and the linker
# keeps one copy for the whole program. If it keeps the copy from an
# object built with vector flags, and the compiler vectorized that
# copy, a CPU without the ISA runs it outside the cpuid gate and dies
# with SIGILL. So those objects must define only strong symbols and
# local ones; src/tensor/simd_scratch.h shows how the matmul bodies
# stay clear of std::vector.
#
# Unoptimized (-O0), a vector-ISA object would leave every inline
# callee out of line (Tensor::row, std::fma, kernels::ApplyTail, ...),
# so src/CMakeLists.txt builds both objects -O2 in every
# configuration, and the check passes in a Debug build as in a
# Release one.
#
# Usage: scripts/check_isa_symbols.sh OBJECT...
# The `lint`-labelled ctest check_isa_symbols passes the objects of the
# oodgnn_isa library (src/CMakeLists.txt). Exits 1 and lists the
# symbols on a violation, 2 on bad usage.
set -euo pipefail
export LC_ALL=C

if [ $# -eq 0 ]; then
  echo "usage: $0 OBJECT..." >&2
  exit 2
fi
fail=0
for obj in "$@"; do
  # nm types: W/w weak, V/v weak object, u unique global.
  shared=$(nm --defined-only -C "${obj}" | awk '$2 ~ /^[WwVvu]$/')
  if [ -n "${shared}" ]; then
    echo "${obj}: weak or unique symbols in a vector-ISA object:"
    echo "${shared}"
    fail=1
  fi
done
if [ "${fail}" -eq 0 ]; then
  echo "check_isa_symbols: $# objects, no weak or unique symbols"
fi
exit "${fail}"
