#!/usr/bin/env bash
# Lists the library functions that no shipped binary reaches.
#
# Builds build-gc/ with -ffunction-sections -fdata-sections (every
# example and bench target, plus perfbench_bench from perfbench/src),
# then relinks each of those binaries with liboodgnn.a whole-archive and
# --gc-sections --print-gc-sections. A .text section of liboodgnn.a that
# the linker drops from every one of those links, and whose symbol none
# of the relinked binaries defines (an inline function's kept copy may
# come from another object), is a function that only tests can reach.
# After demangling, std, lambda, destructor and .text.unlikely sections
# are dropped, and so is the keep-list below:
#
#   - test oracles: AllClose, CheckGradients, ExactHsic (with its
#     CenteredGram helper), ExactPairwiseHsic, MedianBandwidth;
#   - test hooks that read shipped state: Arena::stats,
#     GlobalWeightBank::{w,z}, MetricsRegistry::{Reset,size},
#     StreamingHistogram::Reset, Module::ZeroGrad;
#   - out-of-line copies of functions their own file calls after
#     inlining: Backend::WouldParallelize, Fnv1a64, ShedReasonName,
#     ShedError::what and the Backend constructor. Which copies
#     inlining leaves behind depends on the compiler (this list is for
#     GCC 12 at -O2); a different compiler may report others.
#
# It cannot see a function defined inline in a header (a class-body
# accessor, say): its out-of-line copy is a comdat section emitted only
# in objects that call it, so an uncalled one leaves no section to drop.
# Find those with a grep for callers.
#
# Prints what is left and exits 1 if anything is; exits 0 otherwise.
# Not a ctest entry, because it needs its own build tree.
#
# Usage: scripts/check_unreached.sh
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BUILD_DIR="${ROOT}/build-gc"
GC_FLAGS="-ffunction-sections -fdata-sections"
JOBS=$(nproc)

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="${GC_FLAGS}" > /dev/null
targets=()
for f in bench/table*.cc bench/fig*.cc bench/bench_*.cc examples/*.cpp; do
  name=$(basename "${f}")
  targets+=("${name%.*}")
done
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${targets[@]}" > /dev/null

cmake -B "${BUILD_DIR}/perfbench" -S perfbench -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="${GC_FLAGS}" > /dev/null
cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}" --target perfbench_bench \
  > /dev/null

# Relinks one binary from its CMake link line into $3 with the library
# whole-archive, and prints the library's .text sections the linker drops.
dropped_sections() {
  local dir=$1 link_txt=$2 out=$3
  local cmd
  cmd=$(sed -E \
    -e "s#(-o )[^ ]+#\\1${out}#" \
    -e 's#([^ ]*liboodgnn\.a)#-Wl,--whole-archive \1 -Wl,--no-whole-archive#' \
    "${link_txt}")
  (cd "${dir}" && eval "${cmd} -Wl,--gc-sections -Wl,--print-gc-sections" 2>&1) |
    sed -nE "s#.*removing unused section '\.text\.([^']*)' in file '[^']*liboodgnn\.a\(.*#\1#p" |
    sort -u
}

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
mkdir "${work}/dropped" "${work}/bin"
links=0
for t in "${targets[@]}"; do
  sub=bench
  [ -f "examples/${t}.cpp" ] && sub=examples
  dropped_sections "${BUILD_DIR}/${sub}" \
    "${BUILD_DIR}/${sub}/CMakeFiles/${t}.dir/link.txt" "${work}/bin/${t}" \
    > "${work}/dropped/${t}"
  links=$((links + 1))
done
dropped_sections "${BUILD_DIR}/perfbench" \
  "${BUILD_DIR}/perfbench/CMakeFiles/perfbench_bench.dir/link.txt" \
  "${work}/bin/perfbench_bench" > "${work}/dropped/perfbench_bench"
links=$((links + 1))
nm --defined-only "${work}"/bin/* 2> /dev/null | awk 'NF == 3 { print $3 }' |
  sort -u > "${work}/defined"

keep='^oodgnn::([a-z]+::)?(AllClose|CheckGradients|ExactHsic'
keep+='|\(anonymous namespace\)::CenteredGram|ExactPairwiseHsic'
keep+='|MedianBandwidth|Arena::stats|GlobalWeightBank::[wz]'
keep+='|MetricsRegistry::(Reset|size)|StreamingHistogram::Reset'
keep+='|Module::ZeroGrad|Backend::WouldParallelize|Fnv1a64|ShedReasonName'
keep+='|ShedError::what|Backend::Backend)\('

cat "${work}"/dropped/* | sort | uniq -c |
  awk -v n="${links}" '$1 == n { print $2 }' | grep -v '^unlikely\.' |
  sed 's/\[.*//' | sort -u | comm -23 - "${work}/defined" | c++filt |
  grep -vE '^([^ (]+ )?(std|__gnu_cxx)::|\{lambda|::~' |
  grep -vE "${keep}" | sort > "${work}/unreached" || true

count=$(wc -l < "${work}/unreached")
if [ "${count}" -ne 0 ]; then
  cat "${work}/unreached"
  echo "check_unreached: ${count} library functions reached by none of" \
       "the ${links} shipped binaries" >&2
  exit 1
fi
echo "check_unreached: OK (every library function is reached by one of" \
     "the ${links} shipped binaries)"
