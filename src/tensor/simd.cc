#include "src/tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/tensor/simd_scratch.h"
#include "src/util/rng.h"

// One of the two translation units built with an explicit vector ISA
// flag (src/CMakeLists.txt adds -mavx2 -mfma + OODGNN_SIMD_AVX2 on
// x86-64 compilers that accept both; aarch64 has NEON, fused
// multiply-add included, at baseline); simd_avx512.cc is the other.
// Everything below the runtime gate therefore may use vector
// intrinsics, but no caller reaches it unless Enabled() returned true —
// which requires the CPU feature check to have passed. Fused
// multiply-add appears only where its scalar oracle calls std::fma (the
// matmul family and Dot), and -ffp-contract=off, pinned globally, keeps
// the compiler from fusing anything else: every other body rounds its
// multiply and its add separately, as its oracle does. The file defines
// no inline or template function with external linkage
// (simd_scratch.h says why).
#if defined(OODGNN_SIMD_AVX2) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define OODGNN_SIMD_ISA_AVX2 1
#elif defined(__aarch64__) && (defined(__ARM_NEON) || defined(__ARM_NEON__))
#include <arm_neon.h>
#define OODGNN_SIMD_ISA_NEON 1
#endif

namespace oodgnn {
namespace simd {

namespace {

bool CompiledIsaAvailable() {
#if defined(OODGNN_SIMD_ISA_AVX2)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#elif defined(OODGNN_SIMD_ISA_NEON)
  return true;
#else
  return false;
#endif
}

std::atomic<bool> g_disabled{false};  // Set by SetEnabled(false).

}  // namespace

bool Available() { return CompiledIsaAvailable(); }

const char* IsaName() {
#if defined(OODGNN_SIMD_ISA_AVX2)
  if (!Available()) return "scalar";
  return avx512::Available() ? "avx512" : "avx2";
#elif defined(OODGNN_SIMD_ISA_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

bool Enabled() {
  return !g_disabled.load(std::memory_order_relaxed) && Available();
}

void SetEnabled(bool enabled) {
  g_disabled.store(!enabled, std::memory_order_relaxed);
}

#if defined(OODGNN_SIMD_ISA_AVX2) || defined(OODGNN_SIMD_ISA_NEON)

namespace {

// Minimal vector abstraction. Every wrapper keeps the C operand order
// of the scalar expression it stands in for (VMul(a, b) ≡ a*b,
// VAdd(a, b) ≡ a+b, VFma(a, b, c) ≡ std::fma(a, b, c)). The compiler
// may still commute an add, in either path, and x86/ARM keep the first
// source operand's NaN, so which NaN payload survives NaN + NaN is
// outside the bitwise contract; where NaNs land is not (DESIGN.md
// §16).
#if defined(OODGNN_SIMD_ISA_AVX2)

using vf = __m256;
constexpr int kVLen = 8;
inline vf VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, vf v) { _mm256_storeu_ps(p, v); }
inline vf VBroadcast(float x) { return _mm256_set1_ps(x); }
inline vf VMul(vf a, vf b) { return _mm256_mul_ps(a, b); }
inline vf VAdd(vf a, vf b) { return _mm256_add_ps(a, b); }
inline vf VDiv(vf a, vf b) { return _mm256_div_ps(a, b); }
/// a·b + c rounded once.
inline vf VFma(vf a, vf b, vf c) { return _mm256_fmadd_ps(a, b, c); }
/// Lane-wise x > 0 ? v : +0. The compare is ordered, so NaN lanes of x
/// select +0, as the scalar `x > 0.f` does.
inline vf VSelectPositive(vf x, vf v) {
  return _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ), v);
}
/// True when a lane is NaN or ±inf (x·0 is NaN there, ±0 elsewhere).
inline bool VAnyNonFinite(vf x) {
  const vf p = _mm256_mul_ps(x, _mm256_setzero_ps());
  return _mm256_movemask_ps(_mm256_cmp_ps(p, p, _CMP_UNORD_Q)) != 0;
}
/// True when a lane is −0: the lanes equal to 0 keep their sign bit.
inline bool VAnyNegativeZero(vf x) {
  const vf zeros = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_EQ_OQ);
  return _mm256_movemask_ps(_mm256_and_ps(zeros, x)) != 0;
}
/// The number of lanes that are not == 0 (NaN lanes count).
inline int VCountNonzero(vf x) {
  return __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NEQ_UQ))));
}

#else  // OODGNN_SIMD_ISA_NEON

using vf = float32x4_t;
constexpr int kVLen = 4;
inline vf VLoad(const float* p) { return vld1q_f32(p); }
inline void VStore(float* p, vf v) { vst1q_f32(p, v); }
inline vf VBroadcast(float x) { return vdupq_n_f32(x); }
inline vf VMul(vf a, vf b) { return vmulq_f32(a, b); }
inline vf VAdd(vf a, vf b) { return vaddq_f32(a, b); }
inline vf VDiv(vf a, vf b) { return vdivq_f32(a, b); }
/// a·b + c rounded once.
inline vf VFma(vf a, vf b, vf c) { return vfmaq_f32(c, a, b); }
/// Lane-wise x > 0 ? v : +0 (vcgtq_f32 is false on NaN lanes).
inline vf VSelectPositive(vf x, vf v) {
  return vreinterpretq_f32_u32(
      vandq_u32(vcgtq_f32(x, vdupq_n_f32(0.f)), vreinterpretq_u32_f32(v)));
}
/// True when a lane is NaN or ±inf (x·0 is NaN there, ±0 elsewhere).
inline bool VAnyNonFinite(vf x) {
  const vf p = vmulq_n_f32(x, 0.f);
  return vminvq_u32(vceqq_f32(p, p)) == 0;
}
/// True when a lane is −0: the lanes equal to 0 keep their sign bit.
inline bool VAnyNegativeZero(vf x) {
  const uint32x4_t zeros = vceqq_f32(x, vdupq_n_f32(0.f));
  return vmaxvq_u32(vandq_u32(zeros, vreinterpretq_u32_f32(x))) != 0;
}
/// The number of lanes that are not == 0 (NaN lanes count).
inline int VCountNonzero(vf x) {
  const uint32x4_t nonzero = vmvnq_u32(vceqq_f32(x, vdupq_n_f32(0.f)));
  return static_cast<int>(vaddvq_u32(vshrq_n_u32(nonzero, 31)));
}

#endif

}  // namespace

#include "src/tensor/simd_matmul.inc"

float Dot(const Tensor& a, const Tensor& b) {
  constexpr int kLanes = kernels::kDotLanes;
  constexpr int kVecs = kLanes / kVLen;  // 1 on AVX2, 2 on NEON
  const float* x = a.data();
  const float* y = b.data();
  const int n = a.size();
  vf acc[kVecs];
  for (int v = 0; v < kVecs; ++v) acc[v] = VBroadcast(0.f);
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int v = 0; v < kVecs; ++v) {
      const int at = i + v * kVLen;
      acc[v] = VFma(VLoad(x + at), VLoad(y + at), acc[v]);
    }
  }
  // The oracle's fold and tail on the stored lanes.
  float lane[kLanes];
  for (int v = 0; v < kVecs; ++v) VStore(lane + v * kVLen, acc[v]);
  for (int half = kLanes / 2; half > 0; half /= 2) {
    for (int l = 0; l < half; ++l) lane[l] = lane[l] + lane[l + half];
  }
  float sum = lane[0];
  for (; i < n; ++i) sum = std::fma(x[i], y[i], sum);
  return sum;
}

void Axpy(float alpha, const Tensor& x, Tensor* y, int i0, int i1) {
  const float* xs = x.data();
  float* ys = y->data();
  const vf va = VBroadcast(alpha);
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    const vf prod = VMul(va, VLoad(xs + i));
    VStore(ys + i, VAdd(VLoad(ys + i), prod));
  }
  for (; i < i1; ++i) ys[i] += alpha * xs[i];
}

void Scale(Tensor* y, float s, int i0, int i1) {
  float* ys = y->data();
  const vf vs = VBroadcast(s);
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    VStore(ys + i, VMul(VLoad(ys + i), vs));
  }
  for (; i < i1; ++i) ys[i] *= s;
}

void AddScalar(Tensor* y, float s, int i0, int i1) {
  float* ys = y->data();
  const vf vs = VBroadcast(s);
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    VStore(ys + i, VAdd(VLoad(ys + i), vs));
  }
  for (; i < i1; ++i) ys[i] += s;
}

void Hadamard(const Tensor& a, const Tensor& b, Tensor* out, int i0,
              int i1) {
  const float* as = a.data();
  const float* bs = b.data();
  float* os = out->data();
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    VStore(os + i, VMul(VLoad(as + i), VLoad(bs + i)));
  }
  for (; i < i1; ++i) os[i] = as[i] * bs[i];
}

void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y, int i0,
                 int i1) {
  const float* gs = g.data();
  const float* xs = x.data();
  float* ys = y->data();
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    const vf prod = VMul(VLoad(gs + i), VLoad(xs + i));
    VStore(ys + i, VAdd(VLoad(ys + i), prod));
  }
  for (; i < i1; ++i) ys[i] += gs[i] * xs[i];
}

void Relu(const Tensor& x, Tensor* out, int i0, int i1) {
  const float* xs = x.data();
  float* os = out->data();
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    const vf v = VLoad(xs + i);
    VStore(os + i, VSelectPositive(v, v));
  }
  for (; i < i1; ++i) os[i] = xs[i] > 0.f ? xs[i] : 0.f;
}

void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                     int i1) {
  const float* gs = g.data();
  const float* xs = x.data();
  float* ds = dx->data();
  const vf one = VBroadcast(1.f);
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    const vf prod = VMul(VLoad(gs + i), VSelectPositive(VLoad(xs + i), one));
    VStore(ds + i, VAdd(VLoad(ds + i), prod));
  }
  for (; i < i1; ++i) ds[i] += gs[i] * (xs[i] > 0.f ? 1.f : 0.f);
}

void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                       int i1) {
  const float* gs = g.data();
  const float* xs = x.data();
  float* ds = dx->data();
  const vf two = VBroadcast(2.f);
  int i = i0;
  for (; i + kVLen <= i1; i += kVLen) {
    const vf prod = VMul(VLoad(gs + i), VMul(two, VLoad(xs + i)));
    VStore(ds + i, VAdd(VLoad(ds + i), prod));
  }
  for (; i < i1; ++i) ds[i] += gs[i] * (2.f * xs[i]);
}

namespace {

/// d[r,c] = s[r,c] · col[r,0] over rows [r0, r1), or += when kAcc.
template <bool kAcc>
void ColVecRows(const Tensor& s, const Tensor& col, Tensor* d, int r0,
                int r1) {
  const int cols = d->cols();
  for (int r = r0; r < r1; ++r) {
    const float w = col.at(r, 0);
    const vf vw = VBroadcast(w);
    const float* srow = s.row(r);
    float* drow = d->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      const vf m = VMul(VLoad(srow + c), vw);
      VStore(drow + c, kAcc ? VAdd(VLoad(drow + c), m) : m);
    }
    for (; c < cols; ++c) {
      const float m = srow[c] * w;
      drow[c] = kAcc ? drow[c] + m : m;
    }
  }
}

}  // namespace

void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1) {
  ColVecRows<false>(a, col, out, r0, r1);
}

void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1) {
  ColVecRows<true>(g, col, dx, r0, r1);
}

void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1) {
  float* orow = out->row(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    int c = c0;
    for (; c + kVLen <= c1; c += kVLen) {
      VStore(orow + c, VAdd(VLoad(orow + c), VLoad(arow + c)));
    }
    for (; c < c1; ++c) orow[c] += arow[c];
  }
}

void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1) {
  const float* src = row.row(0);
  const int cols = out->cols();
  for (int r = r0; r < r1; ++r) {
    float* orow = out->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      VStore(orow + c, VAdd(VLoad(orow + c), VLoad(src + c)));
    }
    for (; c < cols; ++c) orow[c] += src[c];
  }
}

void GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                   Tensor* out, int r0, int r1) {
  const int cols = out->cols();
  for (int r = r0; r < r1; ++r) {
    const float* grow = g.row(index[static_cast<size_t>(r)]);
    float* orow = out->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      VStore(orow + c, VAdd(VLoad(orow + c), VLoad(grow + c)));
    }
    for (; c < cols; ++c) orow[c] += grow[c];
  }
}

void ScatterAddRowsPlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, Tensor* out,
                           int s0, int s1) {
  const int cols = a.cols();
  for (int s = s0; s < s1; ++s) {
    float* orow = out->row(s);
    const int begin = offsets[static_cast<size_t>(s)];
    const int end = offsets[static_cast<size_t>(s) + 1];
    for (int j = begin; j < end; ++j) {
      const float* src = a.row(perm[static_cast<size_t>(j)]);
      int c = 0;
      for (; c + kVLen <= cols; c += kVLen) {
        VStore(orow + c, VAdd(VLoad(orow + c), VLoad(src + c)));
      }
      for (; c < cols; ++c) orow[c] += src[c];
    }
  }
}

void GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                      const std::vector<int>& offsets, Tensor* out, int s0,
                      int s1) {
  const int cols = h.cols();
  for (int s = s0; s < s1; ++s) {
    float* orow = out->row(s);
    const int begin = offsets[static_cast<size_t>(s)];
    const int end = offsets[static_cast<size_t>(s) + 1];
    for (int j = begin; j < end; ++j) {
      const float* src = h.row(gather[static_cast<size_t>(j)]);
      int c = 0;
      for (; c + kVLen <= cols; c += kVLen) {
        VStore(orow + c, VAdd(VLoad(orow + c), VLoad(src + c)));
      }
      for (; c < cols; ++c) orow[c] += src[c];
    }
  }
}

void GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                              const std::vector<int>& perm,
                              const std::vector<int>& gather,
                              const std::vector<int>& offsets, Tensor* out,
                              int e_s0, int e_s1) {
  const int cols = h.cols();
  for (int s = e_s0; s < e_s1; ++s) {
    float* orow = out->row(s);
    const int begin = offsets[static_cast<size_t>(s)];
    const int end = offsets[static_cast<size_t>(s) + 1];
    for (int j = begin; j < end; ++j) {
      const float* src = h.row(gather[static_cast<size_t>(j)]);
      const float wv = w.at(perm[static_cast<size_t>(j)], 0);
      const vf vw = VBroadcast(wv);
      int c = 0;
      for (; c + kVLen <= cols; c += kVLen) {
        const vf prod = VMul(VLoad(src + c), vw);
        VStore(orow + c, VAdd(VLoad(orow + c), prod));
      }
      for (; c < cols; ++c) orow[c] += src[c] * wv;
    }
  }
}

void ApplyTailRows(const kernels::MatMulTail& tail, const Tensor& x,
                   Tensor* out, int r0, int r1) {
  const int cols = out->cols();
  for (int r = r0; r < r1; ++r) {
    const float* xrow = x.row(r);
    float* orow = out->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      VStore(orow + c, VApplyTail(tail, VLoad(xrow + c), c));
    }
    for (; c < cols; ++c) orow[c] = kernels::ApplyTail(tail, xrow[c], c);
  }
}

// The column-ranged BatchNorm bodies below run whole vectors of
// columns over every row, then hand the last (c1 − c0) mod kVLen
// columns to their oracle: columns are independent, and each keeps the
// oracle's ascending row order either way.

void CenteredSquareSumAcc(const Tensor& x, const float* neg_mean,
                          Tensor* out, int c0, int c1) {
  const int cv = c0 + (c1 - c0) / kVLen * kVLen;
  float* orow = out->row(0);
  for (int r = 0; r < x.rows(); ++r) {
    const float* xrow = x.row(r);
    for (int c = c0; c < cv; c += kVLen) {
      const vf centered = VAdd(VLoad(xrow + c), VLoad(neg_mean + c));
      VStore(orow + c, VAdd(VLoad(orow + c), VMul(centered, centered)));
    }
  }
  kernels::CenteredSquareSumAcc(x, neg_mean, out, cv, c1);
}

namespace {

/// The node's gradient into its pre-ReLU value on kVLen lanes (the
/// oracle's NodeGradIn): Relu's adjoint into a fresh +0 buffer, or g
/// itself without ReLU.
inline vf VNodeGradIn(bool relu, const float* g, const float* y) {
  if (!relu) return VLoad(g);
  const vf mask = VSelectPositive(VLoad(y), VBroadcast(1.f));
  return VAdd(VBroadcast(0.f), VMul(VLoad(g), mask));
}

}  // namespace

void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                          const kernels::MatMulTail& tail, Tensor* dgamma,
                          Tensor* dbeta, Tensor* dn_xhat, int c0, int c1) {
  const int cv = c0 + (c1 - c0) / kVLen * kVLen;
  float* dg = dgamma != nullptr ? dgamma->row(0) : nullptr;
  float* db = dbeta != nullptr ? dbeta->row(0) : nullptr;
  float* ds = dn_xhat != nullptr ? dn_xhat->row(0) : nullptr;
  const vf zero = VBroadcast(0.f);
  for (int r = 0; r < x.rows(); ++r) {
    const float* grow = g.row(r);
    const float* yrow = y.row(r);
    const float* xrow = x.row(r);
    for (int c = c0; c < cv; c += kVLen) {
      const vf dy = VNodeGradIn(tail.relu, grow + c, yrow + c);
      if (db != nullptr) VStore(db + c, VAdd(VLoad(db + c), dy));
      const vf xhat = VDiv(VAdd(VLoad(xrow + c), VLoad(tail.neg_mean + c)),
                           VLoad(tail.std_dev + c));
      if (dg != nullptr) VStore(dg + c, VAdd(VLoad(dg + c), VMul(dy, xhat)));
      if (ds != nullptr) {
        const vf dn = VAdd(zero, VMul(dy, VLoad(tail.gamma + c)));
        VStore(ds + c, VAdd(VLoad(ds + c), VMul(dn, xhat)));
      }
    }
  }
  kernels::BatchNormGradSumsAcc(g, y, x, tail, dgamma, dbeta, dn_xhat, cv,
                                c1);
}

void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                    const kernels::MatMulTail& tail, const float* dsq,
                    bool accumulate, Tensor* dx, Tensor* dx_sum, int c0,
                    int c1) {
  const int cv = c0 + (c1 - c0) / kVLen * kVLen;
  float* sum = dx_sum != nullptr ? dx_sum->row(0) : nullptr;
  const vf zero = VBroadcast(0.f);
  const vf two = VBroadcast(2.f);
  for (int r = 0; r < x.rows(); ++r) {
    const float* grow = g.row(r);
    const float* yrow = y.row(r);
    const float* xrow = x.row(r);
    float* drow = dx->row(r);
    for (int c = c0; c < cv; c += kVLen) {
      const vf dy = VNodeGradIn(tail.relu, grow + c, yrow + c);
      const vf dn = VAdd(zero, VMul(dy, VLoad(tail.gamma + c)));
      vf dc = VAdd(zero, VDiv(dn, VLoad(tail.std_dev + c)));
      if (dsq != nullptr) {
        const vf centered = VAdd(VLoad(xrow + c), VLoad(tail.neg_mean + c));
        dc = VAdd(dc, VMul(VLoad(dsq + c), VMul(two, centered)));
      }
      VStore(drow + c, accumulate ? VAdd(VLoad(drow + c), dc) : dc);
      if (sum != nullptr) VStore(sum + c, VAdd(VLoad(sum + c), dc));
    }
  }
  kernels::BatchNormGradX(g, y, x, tail, dsq, accumulate, dx, dx_sum, cv, c1);
}

void RffMap(const Tensor& z, const std::vector<int>& source_dim,
            const std::vector<float>& omega, const std::vector<float>& phase,
            bool linear_only, float scale, Tensor* out, int r0, int r1) {
  if (linear_only) {
    // Pure gather, no arithmetic to vectorize.
    kernels::RffMap(z, source_dim, omega, phase, linear_only, scale, out, r0,
                    r1);
    return;
  }
  const int m = out->cols();
  const vf vscale = VBroadcast(scale);
  float xbuf[kVLen];
  float argbuf[kVLen];
  for (int r = r0; r < r1; ++r) {
    const float* zrow = z.row(r);
    float* orow = out->row(r);
    int j = 0;
    for (; j + kVLen <= m; j += kVLen) {
      for (int l = 0; l < kVLen; ++l) {
        xbuf[l] = zrow[source_dim[static_cast<size_t>(j + l)]];
      }
      // arg = omega·x + phase with the scalar's mul-then-add rounding;
      // cos() stays scalar libm so both paths share its exact result.
      const vf varg =
          VAdd(VMul(VLoad(&omega[static_cast<size_t>(j)]), VLoad(xbuf)),
               VLoad(&phase[static_cast<size_t>(j)]));
      VStore(argbuf, varg);
      for (int l = 0; l < kVLen; ++l) argbuf[l] = std::cos(argbuf[l]);
      VStore(orow + j, VMul(vscale, VLoad(argbuf)));
    }
    for (; j < m; ++j) {
      const float x = zrow[source_dim[static_cast<size_t>(j)]];
      orow[j] = scale * std::cos(omega[static_cast<size_t>(j)] * x +
                                 phase[static_cast<size_t>(j)]);
    }
  }
}

#else  // no vector ISA compiled in: delegate so the symbols still link.

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  kernels::MatMulTransAAcc(a, b, out, r0, r1);
}
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  kernels::MatMulTransBAcc(a, b, out, r0, r1);
}
void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1) {
  kernels::MatMulWithTail(a, b, tail, out, r0, r1);
}
float Dot(const Tensor& a, const Tensor& b) { return kernels::Dot(a, b); }
void Axpy(float alpha, const Tensor& x, Tensor* y, int i0, int i1) {
  kernels::Axpy(alpha, x, y, i0, i1);
}
void Scale(Tensor* y, float s, int i0, int i1) {
  kernels::Scale(y, s, i0, i1);
}
void AddScalar(Tensor* y, float s, int i0, int i1) {
  kernels::AddScalar(y, s, i0, i1);
}
void Hadamard(const Tensor& a, const Tensor& b, Tensor* out, int i0,
              int i1) {
  kernels::Hadamard(a, b, out, i0, i1);
}
void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y, int i0,
                 int i1) {
  kernels::HadamardAcc(g, x, y, i0, i1);
}
void Relu(const Tensor& x, Tensor* out, int i0, int i1) {
  kernels::Relu(x, out, i0, i1);
}
void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                     int i1) {
  kernels::ReluBackwardAcc(g, x, dx, i0, i1);
}
void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                       int i1) {
  kernels::SquareBackwardAcc(g, x, dx, i0, i1);
}
void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1) {
  kernels::MulColVec(a, col, out, r0, r1);
}
void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1) {
  kernels::MulColVecAcc(g, col, dx, r0, r1);
}
void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1) {
  kernels::ColumnSumAcc(a, out, c0, c1);
}
void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1) {
  kernels::RowBroadcastAcc(row, out, r0, r1);
}
void ApplyTailRows(const kernels::MatMulTail& tail, const Tensor& x,
                   Tensor* out, int r0, int r1) {
  kernels::ApplyTailRows(tail, x, out, r0, r1);
}
void CenteredSquareSumAcc(const Tensor& x, const float* neg_mean,
                          Tensor* out, int c0, int c1) {
  kernels::CenteredSquareSumAcc(x, neg_mean, out, c0, c1);
}
void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                          const kernels::MatMulTail& tail, Tensor* dgamma,
                          Tensor* dbeta, Tensor* dn_xhat, int c0, int c1) {
  kernels::BatchNormGradSumsAcc(g, y, x, tail, dgamma, dbeta, dn_xhat, c0,
                                c1);
}
void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                    const kernels::MatMulTail& tail, const float* dsq,
                    bool accumulate, Tensor* dx, Tensor* dx_sum, int c0,
                    int c1) {
  kernels::BatchNormGradX(g, y, x, tail, dsq, accumulate, dx, dx_sum, c0, c1);
}
void GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                   Tensor* out, int r0, int r1) {
  kernels::GatherRowsAcc(g, index, out, r0, r1);
}
void ScatterAddRowsPlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, Tensor* out,
                           int s0, int s1) {
  kernels::ScatterAddRowsPlanned(a, perm, offsets, out, s0, s1);
}
void GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                      const std::vector<int>& offsets, Tensor* out, int s0,
                      int s1) {
  kernels::GatherScatterAcc(h, gather, offsets, out, s0, s1);
}
void GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                              const std::vector<int>& perm,
                              const std::vector<int>& gather,
                              const std::vector<int>& offsets, Tensor* out,
                              int e_s0, int e_s1) {
  kernels::GatherScatterWeightedAcc(h, w, perm, gather, offsets, out, e_s0,
                                    e_s1);
}
void RffMap(const Tensor& z, const std::vector<int>& source_dim,
            const std::vector<float>& omega, const std::vector<float>& phase,
            bool linear_only, float scale, Tensor* out, int r0, int r1) {
  kernels::RffMap(z, source_dim, omega, phase, linear_only, scale, out, r0,
                  r1);
}

#endif

// The dropout mask needs 64-bit integer lanes, which the vf layer above
// does not model. Only AVX2 has a vector body: no build of this project
// compiles aarch64 code, so a NEON body could not be tested, and
// aarch64 runs the oracle.
void DropoutMask(const std::uint64_t* words, std::uint64_t threshold,
                 float keep_scale, Tensor* out, int i0, int i1) {
#if defined(OODGNN_SIMD_ISA_AVX2)
  const auto splat = [](std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  };
  const __m256i d = splat(Mt19937_64::kTemperD);
  const __m256i b = splat(Mt19937_64::kTemperB);
  const __m256i c = splat(Mt19937_64::kTemperC);
  // x < threshold (unsigned) ⇔ x ^ 2⁶³ < threshold ^ 2⁶³ (signed).
  const __m256i sign = splat(std::uint64_t{1} << 63);
  const __m256i biased_threshold = _mm256_xor_si256(splat(threshold), sign);
  // All-ones lanes where the tempered word is below the threshold.
  const auto below = [&](const std::uint64_t* w) {
    __m256i z = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_srli_epi64(z, Mt19937_64::kTemperU), d));
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_slli_epi64(z, Mt19937_64::kTemperS), b));
    z = _mm256_xor_si256(
        z, _mm256_and_si256(_mm256_slli_epi64(z, Mt19937_64::kTemperT), c));
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, Mt19937_64::kTemperL));
    return _mm256_cmpgt_epi64(biased_threshold, _mm256_xor_si256(z, sign));
  };
  // Each 64-bit compare lane is all ones or all zeros, so either 32-bit
  // half stands for it: take the halves of words 0-3 from the first
  // compare and 4-7 from the second, then put them in word order.
  const __m256i word_order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256 keep = _mm256_set1_ps(keep_scale);
  float* o = out->data();
  const int n = i1 - i0;
  int k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i drop = _mm256_permutevar8x32_epi32(
        _mm256_blend_epi32(below(words + k), below(words + k + 4), 0xAA),
        word_order);
    _mm256_storeu_ps(o + i0 + k,
                     _mm256_andnot_ps(_mm256_castsi256_ps(drop), keep));
  }
  kernels::DropoutMask(words + k, threshold, keep_scale, out, i0 + k, i1);
#else
  kernels::DropoutMask(words, threshold, keep_scale, out, i0, i1);
#endif
}

}  // namespace simd
}  // namespace oodgnn
