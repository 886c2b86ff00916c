#include "src/tensor/simd.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/tensor/simd_scratch.h"

// The AVX-512 matmul bodies: the tile code of simd.cc
// (src/tensor/simd_matmul.inc) under 16-lane wrappers. This is the
// second translation unit built with vector flags (src/CMakeLists.txt
// adds -mavx512f -mfma + OODGNN_SIMD_AVX512 on x86-64 compilers that
// accept them), and the Backend reaches it only when avx512::Available()
// holds. Without the flags, the entry points delegate to the scalar
// oracle so the symbols still link, and Available() is false.
#if defined(OODGNN_SIMD_AVX512) && defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define OODGNN_SIMD_ISA_AVX512 1
#endif

namespace oodgnn {
namespace simd {
namespace avx512 {

bool Available() {
#if defined(OODGNN_SIMD_ISA_AVX512)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

#if defined(OODGNN_SIMD_ISA_AVX512)

namespace {

// The wrappers of simd.cc at 16 lanes, with the same contracts. AVX-512
// compares write a lane mask register, so the lane tests read it
// directly instead of a movemask.
using vf = __m512;
constexpr int kVLen = 16;
inline vf VLoad(const float* p) { return _mm512_loadu_ps(p); }
inline void VStore(float* p, vf v) { _mm512_storeu_ps(p, v); }
inline vf VBroadcast(float x) { return _mm512_set1_ps(x); }
inline vf VMul(vf a, vf b) { return _mm512_mul_ps(a, b); }
inline vf VAdd(vf a, vf b) { return _mm512_add_ps(a, b); }
inline vf VDiv(vf a, vf b) { return _mm512_div_ps(a, b); }
/// a·b + c rounded once.
inline vf VFma(vf a, vf b, vf c) { return _mm512_fmadd_ps(a, b, c); }
/// Lane-wise x > 0 ? v : +0. The compare is ordered, so NaN lanes of x
/// select +0, as the scalar `x > 0.f` does.
inline vf VSelectPositive(vf x, vf v) {
  return _mm512_maskz_mov_ps(
      _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ), v);
}
/// True when a lane is NaN or ±inf (x·0 is NaN there, ±0 elsewhere).
inline bool VAnyNonFinite(vf x) {
  const vf p = _mm512_mul_ps(x, _mm512_setzero_ps());
  return _mm512_cmp_ps_mask(p, p, _CMP_UNORD_Q) != 0;
}
/// True when a lane is −0: a lane equal to 0 whose sign bit is set,
/// that is, whose bits read as a negative integer.
inline bool VAnyNegativeZero(vf x) {
  const __mmask16 zeros =
      _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_EQ_OQ);
  return _mm512_mask_cmplt_epi32_mask(zeros, _mm512_castps_si512(x),
                                      _mm512_setzero_si512()) != 0;
}
/// The number of lanes that are not == 0 (NaN lanes count).
inline int VCountNonzero(vf x) {
  return __builtin_popcount(static_cast<unsigned>(
      _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ)));
}

}  // namespace

#include "src/tensor/simd_matmul.inc"

#else  // AVX-512 not compiled in: delegate so the symbols still link.

void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1) {
  kernels::MatMulWithTail(a, b, tail, out, r0, r1);
}
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  kernels::MatMulTransAAcc(a, b, out, r0, r1);
}
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  kernels::MatMulTransBAcc(a, b, out, r0, r1);
}

#endif

}  // namespace avx512
}  // namespace simd
}  // namespace oodgnn
