#include "src/tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/util/rng.h"

namespace oodgnn {
namespace kernels {
namespace {

// Cache-block sizes (floats). kBlockN keeps a strip of b and the
// matching out-row segment L1-resident; kBlockK bounds the set of b rows
// streamed per output strip so it stays in L2.
constexpr int kBlockN = 256;
constexpr int kBlockK = 64;
// Output-row strip for the aᵀ·b variant: the strip of out rows revisited
// per input row must stay cached.
constexpr int kBlockP = 16;
// b-row strip for the a·bᵀ variant: kBlockJ rows of b are reused across
// every row of a.
constexpr int kBlockJ = 32;

}  // namespace

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
               int r1) {
  const int k = a.cols();
  const int n = b.cols();
  for (int j0 = 0; j0 < n; j0 += kBlockN) {
    const int j1 = std::min(n, j0 + kBlockN);
    for (int p0 = 0; p0 < k; p0 += kBlockK) {
      const int p1 = std::min(k, p0 + kBlockK);
      for (int i = r0; i < r1; ++i) {
        const float* arow = a.row(i);
        float* orow = out->row(i);
        for (int p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.f) continue;
          const float* brow = b.row(p);
          for (int j = j0; j < j1; ++j) {
            orow[j] = std::fma(av, brow[j], orow[j]);
          }
        }
      }
    }
  }
}

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  const int m = a.rows();
  const int n = b.cols();
  for (int p0 = r0; p0 < r1; p0 += kBlockP) {
    const int p1 = std::min(r1, p0 + kBlockP);
    for (int j0 = 0; j0 < n; j0 += kBlockN) {
      const int j1 = std::min(n, j0 + kBlockN);
      for (int i = 0; i < m; ++i) {
        const float* arow = a.row(i);
        const float* brow = b.row(i);
        for (int p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.f) continue;
          float* orow = out->row(p);
          for (int j = j0; j < j1; ++j) {
            orow[j] = std::fma(av, brow[j], orow[j]);
          }
        }
      }
    }
  }
}

void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1) {
  const int k = a.cols();
  const int n = b.rows();
  for (int j0 = 0; j0 < n; j0 += kBlockJ) {
    const int j1 = std::min(n, j0 + kBlockJ);
    for (int i = r0; i < r1; ++i) {
      const float* arow = a.row(i);
      float* orow = out->row(i);
      for (int j = j0; j < j1; ++j) {
        const float* brow = b.row(j);
        float acc = 0.f;
        for (int p = 0; p < k; ++p) acc = std::fma(arow[p], brow[p], acc);
        orow[j] += acc;
      }
    }
  }
}

void ApplyTailRows(const MatMulTail& tail, const Tensor& x, Tensor* out,
                   int r0, int r1) {
  for (int r = r0; r < r1; ++r) {
    const float* xrow = x.row(r);
    float* orow = out->row(r);
    for (int c = 0; c < out->cols(); ++c) orow[c] = ApplyTail(tail, xrow[c], c);
  }
}

void MatMulWithTail(const Tensor& a, const Tensor& b, const MatMulTail& tail,
                    Tensor* out, int r0, int r1) {
  const size_t cols = static_cast<size_t>(out->cols());
  std::fill(out->data() + static_cast<size_t>(r0) * cols,
            out->data() + static_cast<size_t>(r1) * cols, 0.f);
  MatMulAcc(a, b, out, r0, r1);
  ApplyTailRows(tail, *out, out, r0, r1);
}

void Axpy(float alpha, const Tensor& x, Tensor* y, int i0, int i1) {
  for (int i = i0; i < i1; ++i) (*y)[i] += alpha * x[i];
}

void Scale(Tensor* y, float s, int i0, int i1) {
  for (int i = i0; i < i1; ++i) (*y)[i] *= s;
}

void AddScalar(Tensor* y, float s, int i0, int i1) {
  for (int i = i0; i < i1; ++i) (*y)[i] += s;
}

void Hadamard(const Tensor& a, const Tensor& b, Tensor* out, int i0, int i1) {
  for (int i = i0; i < i1; ++i) (*out)[i] = a[i] * b[i];
}

void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y, int i0,
                 int i1) {
  for (int i = i0; i < i1; ++i) (*y)[i] += g[i] * x[i];
}

void Relu(const Tensor& x, Tensor* out, int i0, int i1) {
  for (int i = i0; i < i1; ++i) (*out)[i] = x[i] > 0.f ? x[i] : 0.f;
}

void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                     int i1) {
  for (int i = i0; i < i1; ++i) (*dx)[i] += g[i] * (x[i] > 0.f ? 1.f : 0.f);
}

void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                       int i1) {
  for (int i = i0; i < i1; ++i) (*dx)[i] += g[i] * (2.f * x[i]);
}

void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1) {
  for (int r = r0; r < r1; ++r) {
    const float s = col.at(r, 0);
    const float* arow = a.row(r);
    float* orow = out->row(r);
    for (int c = 0; c < out->cols(); ++c) orow[c] = arow[c] * s;
  }
}

void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1) {
  for (int r = r0; r < r1; ++r) {
    const float s = col.at(r, 0);
    const float* grow = g.row(r);
    float* drow = dx->row(r);
    for (int c = 0; c < dx->cols(); ++c) drow[c] += grow[c] * s;
  }
}

void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1) {
  float* orow = out->row(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int c = c0; c < c1; ++c) orow[c] += arow[c];
  }
}

void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1) {
  const float* src = row.row(0);
  for (int r = r0; r < r1; ++r) {
    float* orow = out->row(r);
    for (int c = 0; c < out->cols(); ++c) orow[c] += src[c];
  }
}

void HadamardRowSumAcc(const Tensor& x, const Tensor& y, Tensor* out, int r0,
                       int r1) {
  for (int r = r0; r < r1; ++r) {
    const float* xrow = x.row(r);
    const float* yrow = y.row(r);
    float acc = 0.f;
    for (int c = 0; c < x.cols(); ++c) acc += xrow[c] * yrow[c];
    out->at(r, 0) += acc;
  }
}

namespace {

/// Relu's adjoint at one element of the BatchNorm node: the gradient
/// of its pre-ReLU value, which the composite's Relu closure wrote
/// into a fresh +0 buffer.
inline float NodeGradIn(const MatMulTail& tail, float g, float y) {
  return tail.relu ? 0.f + g * (y > 0.f ? 1.f : 0.f) : g;
}

}  // namespace

void CenteredSquareSumAcc(const Tensor& x, const float* neg_mean,
                          Tensor* out, int c0, int c1) {
  float* orow = out->row(0);
  for (int r = 0; r < x.rows(); ++r) {
    const float* xrow = x.row(r);
    for (int c = c0; c < c1; ++c) {
      const float centered = xrow[c] + neg_mean[c];
      orow[c] += centered * centered;
    }
  }
}

void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                          const MatMulTail& tail, Tensor* dgamma,
                          Tensor* dbeta, Tensor* dn_xhat, int c0, int c1) {
  float* dg = dgamma != nullptr ? dgamma->row(0) : nullptr;
  float* db = dbeta != nullptr ? dbeta->row(0) : nullptr;
  float* ds = dn_xhat != nullptr ? dn_xhat->row(0) : nullptr;
  for (int r = 0; r < x.rows(); ++r) {
    const float* grow = g.row(r);
    const float* yrow = y.row(r);
    const float* xrow = x.row(r);
    for (int c = c0; c < c1; ++c) {
      const float dy = NodeGradIn(tail, grow[c], yrow[c]);
      if (db != nullptr) db[c] += dy;
      const float xhat = (xrow[c] + tail.neg_mean[c]) / tail.std_dev[c];
      if (dg != nullptr) dg[c] += dy * xhat;
      if (ds != nullptr) ds[c] += (0.f + dy * tail.gamma[c]) * xhat;
    }
  }
}

void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                    const MatMulTail& tail, const float* dsq,
                    bool accumulate, Tensor* dx, Tensor* dx_sum, int c0,
                    int c1) {
  float* sum = dx_sum != nullptr ? dx_sum->row(0) : nullptr;
  for (int r = 0; r < x.rows(); ++r) {
    const float* grow = g.row(r);
    const float* yrow = y.row(r);
    const float* xrow = x.row(r);
    float* drow = dx->row(r);
    for (int c = c0; c < c1; ++c) {
      const float dn = 0.f + NodeGradIn(tail, grow[c], yrow[c]) * tail.gamma[c];
      float dc = 0.f + dn / tail.std_dev[c];
      if (dsq != nullptr) {
        dc = dc + dsq[c] * (2.f * (xrow[c] + tail.neg_mean[c]));
      }
      drow[c] = accumulate ? drow[c] + dc : dc;
      if (sum != nullptr) sum[c] += dc;
    }
  }
}

float Dot(const Tensor& a, const Tensor& b) {
  const float* x = a.data();
  const float* y = b.data();
  const int n = a.size();
  float lane[kDotLanes] = {};
  int i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (int l = 0; l < kDotLanes; ++l) {
      lane[l] = std::fma(x[i + l], y[i + l], lane[l]);
    }
  }
  // Fold the lanes in halves, lane l taking lane l + 4, then l + 2,
  // then l + 1: the order of a vector body's 8 → 4 → 2 → 1 folds.
  for (int half = kDotLanes / 2; half > 0; half /= 2) {
    for (int l = 0; l < half; ++l) lane[l] = lane[l] + lane[l + half];
  }
  float acc = lane[0];
  for (; i < n; ++i) acc = std::fma(x[i], y[i], acc);
  return acc;
}

void GatherRows(const Tensor& a, const std::vector<int>& index, Tensor* out,
                int r0, int r1) {
  for (int r = r0; r < r1; ++r) {
    const float* src = a.row(index[static_cast<size_t>(r)]);
    std::copy(src, src + a.cols(), out->row(r));
  }
}

void GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                   Tensor* out, int r0, int r1) {
  for (int r = r0; r < r1; ++r) {
    const float* grow = g.row(index[static_cast<size_t>(r)]);
    float* orow = out->row(r);
    for (int c = 0; c < out->cols(); ++c) orow[c] += grow[c];
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
      for (int c = 0; c < cols; ++c) orow[c] += src[c];
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
      for (int c = 0; c < cols; ++c) orow[c] += src[c];
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
      for (int c = 0; c < cols; ++c) orow[c] += src[c] * wv;
    }
  }
}

void EdgeDotAcc(const Tensor& x, const Tensor& y, const std::vector<int>& xi,
                const std::vector<int>& yi, Tensor* out, int e0, int e1) {
  const int cols = x.cols();
  for (int e = e0; e < e1; ++e) {
    const float* xrow = x.row(xi[static_cast<size_t>(e)]);
    const float* yrow = y.row(yi[static_cast<size_t>(e)]);
    float acc = 0.f;
    for (int c = 0; c < cols; ++c) acc += xrow[c] * yrow[c];
    out->at(e, 0) += acc;
  }
}

void SegmentExtremePlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, bool is_max,
                           Tensor* out, std::vector<int>* argrow, int s0,
                           int s1) {
  const int cols = a.cols();
  const float init = is_max ? -std::numeric_limits<float>::infinity()
                            : std::numeric_limits<float>::infinity();
  for (int s = s0; s < s1; ++s) {
    float* orow = out->row(s);
    std::fill(orow, orow + cols, init);
    std::fill(argrow->begin() + static_cast<size_t>(s) * cols,
              argrow->begin() + static_cast<size_t>(s + 1) * cols, -1);
    const int begin = offsets[static_cast<size_t>(s)];
    const int end = offsets[static_cast<size_t>(s) + 1];
    for (int j = begin; j < end; ++j) {
      const int r = perm[static_cast<size_t>(j)];
      const float* arow = a.row(r);
      for (int c = 0; c < cols; ++c) {
        const bool better = is_max ? arow[c] > orow[c] : arow[c] < orow[c];
        if (better) {
          orow[c] = arow[c];
          (*argrow)[static_cast<size_t>(s) * cols + c] = r;
        }
      }
    }
    // Empty segments: replace ±inf sentinels with zeros.
    for (int c = 0; c < cols; ++c) {
      if ((*argrow)[static_cast<size_t>(s) * cols + c] < 0) orow[c] = 0.f;
    }
  }
}

void SegmentExtremeBackwardAcc(const Tensor& g,
                               const std::vector<int>& argrow, Tensor* out,
                               int s0, int s1) {
  const int cols = g.cols();
  for (int s = s0; s < s1; ++s) {
    const float* grow = g.row(s);
    for (int c = 0; c < cols; ++c) {
      const int r = argrow[static_cast<size_t>(s) * cols + c];
      if (r >= 0) out->at(r, c) += grow[c];
    }
  }
}

void RffMap(const Tensor& z, const std::vector<int>& source_dim,
            const std::vector<float>& omega, const std::vector<float>& phase,
            bool linear_only, float scale, Tensor* out, int r0, int r1) {
  const int m = out->cols();
  for (int r = r0; r < r1; ++r) {
    const float* zrow = z.row(r);
    float* orow = out->row(r);
    for (int j = 0; j < m; ++j) {
      const float x = zrow[source_dim[static_cast<size_t>(j)]];
      orow[j] = linear_only
                    ? x
                    : scale * std::cos(omega[static_cast<size_t>(j)] * x +
                                       phase[static_cast<size_t>(j)]);
    }
  }
}

void DropoutMask(const std::uint64_t* words, std::uint64_t threshold,
                 float keep_scale, Tensor* out, int i0, int i1) {
  // keep_scale's bits ANDed with an all-ones (kept) or all-zero
  // (dropped, +0) mask: a select without the per-element branch that
  // a p = 0.5 mask mispredicts half the time.
  const std::uint32_t keep_bits = std::bit_cast<std::uint32_t>(keep_scale);
  float* o = out->data();
  for (int i = i0; i < i1; ++i) {
    const bool kept = Mt19937_64::Temper(words[i - i0]) >= threshold;
    const std::uint32_t mask = 0u - static_cast<std::uint32_t>(kept);
    o[i] = std::bit_cast<float>(keep_bits & mask);
  }
}

void CopyRowsTo(const Tensor& src, Tensor* dst, int dst_row_begin, int r0,
                int r1) {
  for (int r = r0; r < r1; ++r) {
    const float* s = src.row(r);
    std::copy(s, s + src.cols(), dst->row(dst_row_begin + r));
  }
}

}  // namespace kernels
}  // namespace oodgnn
