#include "src/tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/util/rng.h"

// This is the only translation unit built with an explicit vector ISA
// flag (src/CMakeLists.txt adds -mavx2 + OODGNN_SIMD_AVX2 on x86-64
// compilers that accept it; aarch64 has NEON at baseline). Everything
// below the runtime gate therefore may use vector intrinsics, but no
// caller reaches it unless Enabled() returned true — which requires
// the CPU feature check to have passed. FMA is deliberately never
// used (and -ffp-contract=off is pinned globally): a fused
// multiply-add rounds once where the scalar oracle rounds twice, which
// would break the bitwise contract.
#if defined(OODGNN_SIMD_AVX2) && defined(__AVX2__)
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
  return __builtin_cpu_supports("avx2") != 0;
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
  return Available() ? "avx2" : "scalar";
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
// VAdd(a, b) ≡ a+b). The compiler may still commute an add, in either
// path, and x86/ARM keep the first source operand's NaN, so which NaN
// payload survives NaN + NaN is outside the bitwise contract; where
// NaNs land is not (DESIGN.md §16).
#if defined(OODGNN_SIMD_ISA_AVX2)

using vf = __m256;
constexpr int kVLen = 8;
inline vf VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, vf v) { _mm256_storeu_ps(p, v); }
inline vf VBroadcast(float x) { return _mm256_set1_ps(x); }
inline vf VMul(vf a, vf b) { return _mm256_mul_ps(a, b); }
inline vf VAdd(vf a, vf b) { return _mm256_add_ps(a, b); }
inline vf VDiv(vf a, vf b) { return _mm256_div_ps(a, b); }
/// Lane-wise x > 0 ? v : +0. The compare is ordered, so NaN lanes of x
/// select +0, as the scalar `x > 0.f` does.
inline vf VSelectPositive(vf x, vf v) {
  return _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ), v);
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
/// Lane-wise x > 0 ? v : +0 (vcgtq_f32 is false on NaN lanes).
inline vf VSelectPositive(vf x, vf v) {
  return vreinterpretq_f32_u32(
      vandq_u32(vcgtq_f32(x, vdupq_n_f32(0.f)), vreinterpretq_u32_f32(v)));
}

#endif

// Register tiles of the fp32 matmul bodies. Each output tile is loaded
// once per block of contraction rows, summed in vector registers over
// the block and stored once, so no running sum waits on a
// store-to-load forward. Tiling changes only which elements are in
// flight together, never the terms an element sums or their order, so
// the scalar kernels stay the oracle. The a·b block covers every model
// contraction in one pass; it exists so that a GEMV against a huge b
// walks a bounded set of b rows (pages) per tile. The aᵀ·b block keeps
// its rows of b in L1.
constexpr int kTileVecs = 8;          // a·b, aᵀ·b: output vectors per tile
constexpr int kBlockK = 256;          // a·b: contraction rows per block
constexpr int kTransABlockRows = 64;  // aᵀ·b: contraction rows per block
constexpr int kTransBRows = 4;        // a·bᵀ: output rows per tile
constexpr int kTransBVecs = 2;        // a·bᵀ: panel vectors per tile

/// Per-thread scratch of the matmul bodies. It grows to the largest
/// size a call has needed and never shrinks, so a warm call makes no
/// heap allocation; it is not tensor storage, so the arena accounting
/// never sees it.
struct MatMulScratch {
  std::vector<const float*> rows;  ///< b row of each nonzero term
  std::vector<float> coefs;        ///< its nonzero a coefficient
  std::vector<float> panel;        ///< a·bᵀ: b rows packed p-major

  void ReserveTerms(int n) {
    if (rows.size() < static_cast<size_t>(n)) {
      rows.resize(static_cast<size_t>(n));
      coefs.resize(static_cast<size_t>(n));
    }
  }
};

MatMulScratch& ThreadScratch() {
  thread_local MatMulScratch scratch;
  return scratch;
}

/// Lists the nonzero terms of one contraction in ascending order:
/// coefficient t is coef[t·stride], and it multiplies b row b0 + t.
/// Branch-free — every t is written, and the count advances only past
/// a coefficient that is not `== 0.f` — so this applies the oracle's
/// zero-skip (±0 drop out, NaN stays) once per row and contraction
/// block instead of once per tile, with nothing to mispredict on
/// post-ReLU input. Returns the number of terms.
inline int NonzeroTerms(const float* coef, size_t stride, int count,
                        const Tensor& b, int b0, MatMulScratch* s) {
  const float** rows = s->rows.data();
  float* coefs = s->coefs.data();
  int terms = 0;
  for (int t = 0; t < count; ++t) {
    const float c = coef[static_cast<size_t>(t) * stride];
    rows[terms] = b.row(b0 + t);
    coefs[terms] = c;
    terms += c != 0.f ? 1 : 0;
  }
  return terms;
}

/// The tail steps of kernels::ApplyTail on the columns [c, c + kVLen),
/// in lane form with the scalar operand order; ReLU is the `x > 0`
/// mask, never a max.
inline vf VApplyTail(const kernels::MatMulTail& t, vf x, int c) {
  if (t.bias != nullptr) x = VAdd(x, VLoad(t.bias + c));
  if (t.neg_mean != nullptr) {
    x = VAdd(x, VLoad(t.neg_mean + c));
    x = VDiv(x, VLoad(t.std_dev + c));
    x = VMul(x, VLoad(t.gamma + c));
    x = VAdd(x, VLoad(t.beta + c));
  }
  return t.relu ? VSelectPositive(x, x) : x;
}

/// orow[j, j + NV·kVLen) += Σ_t coefs[t]·rows[t][j, …) in term order,
/// each output vector held in a register across all terms. With
/// kFromZero the sums start from +0 in registers instead of the stored
/// output (what a zero-filled output holds); with kTail they take the
/// tail before the store.
template <int NV, bool kFromZero, bool kTail>
void AccumulateTile(const MatMulScratch& s, int terms,
                    const kernels::MatMulTail* tail, float* orow, int j) {
  vf acc[NV];
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    acc[v] = kFromZero ? VBroadcast(0.f) : VLoad(orow + j + v * kVLen);
  }
  for (int t = 0; t < terms; ++t) {
    const vf c = VBroadcast(s.coefs[static_cast<size_t>(t)]);
    const float* brow = s.rows[static_cast<size_t>(t)] + j;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = VAdd(acc[v], VMul(c, VLoad(brow + v * kVLen)));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    const int col = j + v * kVLen;
    VStore(orow + col, kTail ? VApplyTail(*tail, acc[v], col) : acc[v]);
  }
}

/// orow[0, n) += the listed terms: full kTileVecs tiles, one narrower
/// tile for the remaining whole vectors, then scalar columns.
/// kFromZero and kTail as in AccumulateTile.
template <bool kFromZero = false, bool kTail = false>
void AccumulateRow(const MatMulScratch& s, int terms, float* orow, int n,
                   const kernels::MatMulTail* tail = nullptr) {
  using Tile = void (*)(const MatMulScratch&, int, const kernels::MatMulTail*,
                        float*, int);
  static constexpr Tile kPartial[kTileVecs] = {
      nullptr,
      AccumulateTile<1, kFromZero, kTail>,
      AccumulateTile<2, kFromZero, kTail>,
      AccumulateTile<3, kFromZero, kTail>,
      AccumulateTile<4, kFromZero, kTail>,
      AccumulateTile<5, kFromZero, kTail>,
      AccumulateTile<6, kFromZero, kTail>,
      AccumulateTile<7, kFromZero, kTail>};
  constexpr int kTileCols = kTileVecs * kVLen;
  int j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    AccumulateTile<kTileVecs, kFromZero, kTail>(s, terms, tail, orow, j);
  }
  const int vecs = (n - j) / kVLen;
  if (vecs > 0) {
    kPartial[vecs](s, terms, tail, orow, j);
    j += vecs * kVLen;
  }
  for (; j < n; ++j) {
    float sum = kFromZero ? 0.f : orow[j];
    for (int t = 0; t < terms; ++t) {
      sum += s.coefs[static_cast<size_t>(t)] *
             s.rows[static_cast<size_t>(t)][j];
    }
    orow[j] = kTail ? kernels::ApplyTail(*tail, sum, j) : sum;
  }
}

/// orows[r][j, j + NV·kVLen) += dot(arows[r], b rows j…) for R rows:
/// the panel holds those b rows p-major (NV vectors per p), so each
/// panel load feeds R rows, and the R·NV sums start from +0 and run
/// in ascending p like the oracle's `acc`.
template <int R, int NV>
void DotTile(const float* const* arows, const float* panel, int k,
             float* const* orows, int j) {
  vf acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) acc[r][v] = VBroadcast(0.f);
  }
  for (int p = 0; p < k; ++p) {
    const float* wp = panel + static_cast<size_t>(p) * NV * kVLen;
    vf w[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) w[v] = VLoad(wp + v * kVLen);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const vf x = VBroadcast(arows[r][p]);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = VAdd(acc[r][v], VMul(x, w[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      float* o = orows[r] + j + v * kVLen;
      VStore(o, VAdd(VLoad(o), acc[r][v]));
    }
  }
}

/// One panel of NV·kVLen b rows starting at row j, against out rows
/// [r0, r1): kTransBRows-row tiles, then single rows.
template <int NV>
void DotPanel(const Tensor& a, const Tensor& b, Tensor* out, int r0, int r1,
              int j, MatMulScratch* s) {
  const int k = a.cols();
  constexpr int kCols = NV * kVLen;
  s->panel.resize(static_cast<size_t>(k) * kCols);
  float* panel = s->panel.data();
  for (int l = 0; l < kCols; ++l) {
    const float* brow = b.row(j + l);
    for (int p = 0; p < k; ++p) {
      panel[static_cast<size_t>(p) * kCols + l] = brow[p];
    }
  }
  int i = r0;
  for (; i + kTransBRows <= r1; i += kTransBRows) {
    const float* arows[kTransBRows];
    float* orows[kTransBRows];
    for (int r = 0; r < kTransBRows; ++r) {
      arows[r] = a.row(i + r);
      orows[r] = out->row(i + r);
    }
    DotTile<kTransBRows, NV>(arows, panel, k, orows, j);
  }
  for (; i < r1; ++i) {
    const float* arow = a.row(i);
    float* orow = out->row(i);
    DotTile<1, NV>(&arow, panel, k, &orow, j);
  }
}

}  // namespace

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
               int r1) {
  const int k = a.cols();
  const int n = b.cols();
  MatMulScratch& s = ThreadScratch();
  s.ReserveTerms(kBlockK);
  for (int p0 = 0; p0 < k; p0 += kBlockK) {
    const int rows = std::min(kBlockK, k - p0);
    for (int i = r0; i < r1; ++i) {
      const int terms = NonzeroTerms(a.row(i) + p0, 1, rows, b, p0, &s);
      AccumulateRow(s, terms, out->row(i), n);
    }
  }
}

void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1) {
  const int k = a.cols();
  const int n = b.cols();
  MatMulScratch& s = ThreadScratch();
  s.ReserveTerms(kBlockK);
  // Every model contraction fits one block, which starts from +0 and
  // ends in the tail. A longer one stores partial sums between blocks,
  // as MatMulAcc does. k = 0 still runs one block: its sums are +0.
  for (int p0 = 0; p0 == 0 || p0 < k; p0 += kBlockK) {
    const int rows = std::min(kBlockK, k - p0);
    const bool first = p0 == 0;
    const bool last = p0 + kBlockK >= k;
    for (int i = r0; i < r1; ++i) {
      const int terms = NonzeroTerms(a.row(i) + p0, 1, rows, b, p0, &s);
      float* orow = out->row(i);
      if (first && last) {
        AccumulateRow<true, true>(s, terms, orow, n, &tail);
      } else if (first) {
        AccumulateRow<true, false>(s, terms, orow, n);
      } else if (last) {
        AccumulateRow<false, true>(s, terms, orow, n, &tail);
      } else {
        AccumulateRow(s, terms, orow, n);
      }
    }
  }
}

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  const int m = a.rows();
  const int n = b.cols();
  const size_t stride = static_cast<size_t>(a.cols());
  MatMulScratch& s = ThreadScratch();
  s.ReserveTerms(kTransABlockRows);
  // Blocks of contraction rows in ascending order keep their rows of b
  // in L1 while every output row of the range sums over them.
  for (int i0 = 0; i0 < m; i0 += kTransABlockRows) {
    const int rows = std::min(kTransABlockRows, m - i0);
    for (int p = r0; p < r1; ++p) {
      const int terms = NonzeroTerms(a.row(i0) + p, stride, rows, b, i0, &s);
      AccumulateRow(s, terms, out->row(p), n);
    }
  }
}

void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  const int k = a.cols();
  const int n = b.rows();
  MatMulScratch& s = ThreadScratch();
  constexpr int kWide = kTransBVecs * kVLen;
  int j = 0;
  for (; j + kWide <= n; j += kWide) {
    DotPanel<kTransBVecs>(a, b, out, r0, r1, j, &s);
  }
  for (; j + kVLen <= n; j += kVLen) DotPanel<1>(a, b, out, r0, r1, j, &s);
  // Tail columns: scalar dots, same as the oracle.
  for (int i = r0; i < r1; ++i) {
    const float* arow = a.row(i);
    float* orow = out->row(i);
    for (int jt = j; jt < n; ++jt) {
      const float* brow = b.row(jt);
      float acc = 0.f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[jt] += acc;
    }
  }
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

/// The two per-element maps of the row-vector broadcasts, in lane and
/// scalar form with the scalar operand order.
struct MulMap {
  vf operator()(vf a, vf b) const { return VMul(a, b); }
  float operator()(float a, float b) const { return a * b; }
};
struct DivMap {
  vf operator()(vf a, vf b) const { return VDiv(a, b); }
  float operator()(float a, float b) const { return a / b; }
};

/// d[c] = map(s[c], v[c]) over rows [r0, r1) of s, or d[c] += … when
/// kAcc; v is the one row of `row`.
template <bool kAcc, typename Map>
void RowVecRows(const Tensor& s, const Tensor& row, Tensor* d, int r0,
                int r1, Map map) {
  const float* v = row.row(0);
  const int cols = d->cols();
  for (int r = r0; r < r1; ++r) {
    const float* srow = s.row(r);
    float* drow = d->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      const vf m = map(VLoad(srow + c), VLoad(v + c));
      VStore(drow + c, kAcc ? VAdd(VLoad(drow + c), m) : m);
    }
    for (; c < cols; ++c) {
      const float m = map(srow[c], v[c]);
      drow[c] = kAcc ? drow[c] + m : m;
    }
  }
}

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

void MulRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1) {
  RowVecRows<false>(a, row, out, r0, r1, MulMap());
}

void MulRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1) {
  RowVecRows<true>(g, row, dx, r0, r1, MulMap());
}

void DivRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1) {
  RowVecRows<false>(a, row, out, r0, r1, DivMap());
}

void DivRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1) {
  RowVecRows<true>(g, row, dx, r0, r1, DivMap());
}

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

void ColBroadcastAcc(const Tensor& col, Tensor* out, int r0, int r1) {
  const int cols = out->cols();
  for (int r = r0; r < r1; ++r) {
    const float v = col.at(r, 0);
    const vf vv = VBroadcast(v);
    float* orow = out->row(r);
    int c = 0;
    for (; c + kVLen <= cols; c += kVLen) {
      VStore(orow + c, VAdd(VLoad(orow + c), vv));
    }
    for (; c < cols; ++c) orow[c] += v;
  }
}

void HadamardColumnSumAcc(const Tensor& x, const Tensor& y, Tensor* out,
                          int c0, int c1) {
  float* orow = out->row(0);
  for (int r = 0; r < x.rows(); ++r) {
    const float* xrow = x.row(r);
    const float* yrow = y.row(r);
    int c = c0;
    for (; c + kVLen <= c1; c += kVLen) {
      const vf prod = VMul(VLoad(xrow + c), VLoad(yrow + c));
      VStore(orow + c, VAdd(VLoad(orow + c), prod));
    }
    for (; c < c1; ++c) orow[c] += xrow[c] * yrow[c];
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

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
               int r1) {
  kernels::MatMulAcc(a, b, out, r0, r1);
}
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
void MulRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1) {
  kernels::MulRowVec(a, row, out, r0, r1);
}
void MulRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1) {
  kernels::MulRowVecAcc(g, row, dx, r0, r1);
}
void DivRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1) {
  kernels::DivRowVec(a, row, out, r0, r1);
}
void DivRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1) {
  kernels::DivRowVecAcc(g, row, dx, r0, r1);
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
void ColBroadcastAcc(const Tensor& col, Tensor* out, int r0, int r1) {
  kernels::ColBroadcastAcc(col, out, r0, r1);
}
void HadamardColumnSumAcc(const Tensor& x, const Tensor& y, Tensor* out,
                          int c0, int c1) {
  kernels::HadamardColumnSumAcc(x, y, out, c0, c1);
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
