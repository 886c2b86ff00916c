#ifndef OODGNN_TENSOR_SIMD_SCRATCH_H_
#define OODGNN_TENSOR_SIMD_SCRATCH_H_

#include <cstddef>

namespace oodgnn {
namespace simd {

/// Per-thread scratch of the matmul bodies (src/tensor/simd_matmul.inc),
/// as plain pointers: the bodies index it and never resize it.
struct MatMulScratch {
  const float** rows;  ///< b row of each nonzero term
  float* coefs;        ///< its nonzero a coefficient
  float* panel;        ///< a·bᵀ: b rows packed p-major
};

/// This thread's scratch with room for at least `terms` terms and
/// `panel_floats` panel floats. It grows to the largest size a call has
/// needed and never shrinks, so a warm call makes no heap allocation;
/// it is not tensor storage, so the arena accounting never sees it.
///
/// Defined in simd_scratch.cc, which is built without vector flags.
/// Growing a std::vector instantiates library templates, and the linker
/// keeps one weak copy of each for the whole program, possibly the copy
/// from a translation unit built with -mavx2 or -mavx512f, which would
/// then run outside the cpuid gate. The vector TUs therefore define no
/// inline or template function with external linkage
/// (scripts/check_isa_symbols.sh).
MatMulScratch ThreadMatMulScratch(int terms, size_t panel_floats);

}  // namespace simd
}  // namespace oodgnn

#endif  // OODGNN_TENSOR_SIMD_SCRATCH_H_
