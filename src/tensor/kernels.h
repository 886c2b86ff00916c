#ifndef OODGNN_TENSOR_KERNELS_H_
#define OODGNN_TENSOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {
namespace kernels {

// ---------------------------------------------------------------------------
// Pure, autograd-free numeric kernels. Every kernel operates on an
// explicit contiguous range of its *output* (rows, columns, segments or
// flat elements), so a backend can partition work across threads while
// each output element is still produced by exactly one chunk, in the
// same per-element accumulation order as a serial sweep. That is the
// determinism contract: results are bitwise identical for any
// partitioning of the range, hence for any thread count.
//
// `Acc` kernels accumulate into the output (out += ...); the rest
// overwrite it. Shape checks live in the callers (src/tensor/backend.*).
//
// Rounding: the matmul family and Dot fuse each multiply-add into one
// std::fma (one rounding), as their SIMD mirrors do with fused vector
// instructions. Every other kernel multiplies, then adds, and the
// build pins -ffp-contract=off so the compiler fuses nothing itself.
// ---------------------------------------------------------------------------

// --- dense matmul family (cache-blocked, zero-skip on the a operand) ---

/// out[r0:r1, :] += a[m,k] · b[k,n]: out[i,j] = fma(a[i,p], b[p,j],
/// out[i,j]) in ascending p, skipping every a[i,p] == 0; range over
/// rows of out (= rows of a).
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0, int r1);

/// out[r0:r1, :] += aᵀ · b: out[p,j] = fma(a[i,p], b[i,j], out[p,j]) in
/// ascending i, skipping every a[i,p] == 0; range over rows of out
/// (= columns of a).
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

/// out[r0:r1, :] += a · bᵀ where b is [n,k]: out[i,j] += acc, where acc
/// starts from +0 and takes fma(a[i,p], b[j,p], acc) in ascending p;
/// range over rows of out (= rows of a).
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

/// Per-column epilogue of MatMulWithTail: the element-wise ops that
/// follow a Linear's matmul in eval mode, as pointers to [1, n] rows.
/// A finished sum x of column c takes the steps of the composite ops
/// it replaces, in their order: x + bias[c] (Linear), then
/// x + neg_mean[c], x / std_dev[c], x · gamma[c], x + beta[c]
/// (BatchNorm1d with running statistics), then x > 0 ? x : 0 (ReLU).
/// A null bias skips its add; a null neg_mean skips all four
/// BatchNorm steps.
struct MatMulTail {
  const float* bias = nullptr;
  const float* neg_mean = nullptr;  ///< −running_mean
  const float* std_dev = nullptr;   ///< √(running_var + ε)
  const float* gamma = nullptr;
  const float* beta = nullptr;
  bool relu = false;
};

/// The tail steps on one finished sum x of column c.
inline float ApplyTail(const MatMulTail& tail, float x, int c) {
  if (tail.bias != nullptr) x = x + tail.bias[c];
  if (tail.neg_mean != nullptr) {
    x = x + tail.neg_mean[c];
    x = x / tail.std_dev[c];
    x = x * tail.gamma[c];
    x = x + tail.beta[c];
  }
  return tail.relu ? (x > 0.f ? x : 0.f) : x;
}

/// out[r, c] = ApplyTail(tail, x[r, c], c); range over rows. x may be
/// out itself.
void ApplyTailRows(const MatMulTail& tail, const Tensor& x, Tensor* out,
                   int r0, int r1);

/// out[r0:r1, :] = tail(a · b): zeroes the rows, runs MatMulAcc, then
/// ApplyTailRows. The oracle of the one-pass eval Linear; outputs are
/// written, never read, so out may be unfilled.
void MatMulWithTail(const Tensor& a, const Tensor& b, const MatMulTail& tail,
                    Tensor* out, int r0, int r1);

// --- element-wise maps over flat ranges ---

/// y[i] += alpha · x[i].
void Axpy(float alpha, const Tensor& x, Tensor* y, int i0, int i1);

/// y[i] *= s.
void Scale(Tensor* y, float s, int i0, int i1);

/// y[i] += s.
void AddScalar(Tensor* y, float s, int i0, int i1);

/// out[i] = a[i] · b[i].
void Hadamard(const Tensor& a, const Tensor& b, Tensor* out, int i0, int i1);

/// y[i] += g[i] · x[i].
void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y, int i0, int i1);

/// out[i] = x[i] > 0 ? x[i] : 0 (so −0, NaN and −inf map to +0).
void Relu(const Tensor& x, Tensor* out, int i0, int i1);

/// dx[i] += g[i] · (x[i] > 0 ? 1 : 0); ReLU's adjoint.
void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                     int i1);

/// dx[i] += g[i] · (2·x[i]); Square's adjoint.
void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                       int i1);

// --- column-vector broadcasts; ranges over rows ---

/// out[r,c] = a[r,c] · col[r,0].
void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1);

/// dx[r,c] += g[r,c] · col[r,0]; MulColVec's adjoint in a.
void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1);

// --- reductions and their broadcast adjoints ---

/// out[0,c] += Σ_r a[r,c]; range over columns.
void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1);

/// out[r,:] += row[0,:]; range over rows (adjoint of ColumnSum).
void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1);

/// out[r,0] += Σ_c x[r,c]·y[r,c]; range over rows (column-vector
/// broadcast adjoint).
void HadamardRowSumAcc(const Tensor& x, const Tensor& y, Tensor* out, int r0,
                       int r1);

/// Lanes of Dot's fixed association.
constexpr int kDotLanes = 8;

/// Σ_i a[i]·b[i] over all flat indices, in one fixed association:
/// lane l (of kDotLanes) starts from +0 and takes fma(a[i], b[i], ·)
/// for i ≡ l (mod kDotLanes) in ascending i over the whole multiples
/// of kDotLanes; the lanes fold in halves (lane l takes lane l + 4,
/// then l + 2, then l + 1); the remaining elements then take fma in
/// ascending i.
float Dot(const Tensor& a, const Tensor& b);

// --- the BatchNorm1d (+ ReLU) tape node (src/nn/batchnorm.cc) ---
//
// The node is bitwise equal to the composite ops MeanRows → Scale(−1)
// → AddRowVec → Square → MeanRows → AddScalar(ε) → SqrtOp → DivRowVec
// → MulRowVec(γ) → AddRowVec(β) → Relu (tests/test_util.h keeps them
// as its reference), because each element takes their operations in
// their order. Its per-column constants are a MatMulTail without bias:
// neg_mean = −mean, std_dev = σ = √(var + ε), gamma, beta and relu,
// and x̂ = (x + neg_mean) / σ is recomputed, never stored. Every
// kernel below takes the node's output y (for ReLU's mask: y > 0
// exactly where the pre-ReLU value is) and upstream gradient g, and
// starts each element from the composite's fresh +0 gradient buffers:
//   dy = relu ? 0 + g·(y > 0 ? 1 : 0) : g    (Relu's adjoint)
//   dn = 0 + dy·γ                             (MulRowVec's, in a)
// The column-ranged ones visit rows in ascending order, as the
// composite's column sums do.

/// out[0,c] += Σ_r (x[r,c] + neg_mean[c])², each term centered,
/// squared and added in ascending r; range over columns. The
/// train-mode variance's center, square and column sum in one pass.
void CenteredSquareSumAcc(const Tensor& x, const float* neg_mean,
                          Tensor* out, int c0, int c1);

/// The sums of the node's backward over columns [c0, c1), each added
/// in ascending r into its [1, n] row when that is not null:
/// dbeta += dy (AddRowVec's adjoint in β), dgamma += dy·x̂ (MulRowVec's
/// in γ) and dn_xhat += dn·x̂ (DivRowVec's column sum in σ).
void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                          const MatMulTail& tail, Tensor* dgamma,
                          Tensor* dbeta, Tensor* dn_xhat, int c0, int c1);

/// The node's input gradient over columns [c0, c1): dc = 0 + dn/σ
/// (DivRowVec's adjoint in a), then, with dsq not null (train mode),
/// dc + dsq[c]·(2·(x + neg_mean)) (Square's adjoint; dsq is the
/// variance path's gradient of each square). dx = dx + dc when
/// `accumulate`, else dx = dc (the composite hands its buffer over),
/// and with dx_sum not null, dx_sum += dc in ascending r.
void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                    const MatMulTail& tail, const float* dsq,
                    bool accumulate, Tensor* dx, Tensor* dx_sum, int c0,
                    int c1);

// --- gather / scatter / segment ops ---

/// out[r,:] = a[index[r],:]; range over rows of out.
void GatherRows(const Tensor& a, const std::vector<int>& index, Tensor* out,
                int r0, int r1);

/// out[r,:] += g[index[r],:]; range over rows of out (scatter adjoint).
void GatherRowsAcc(const Tensor& g, const std::vector<int>& index, Tensor* out,
                   int r0, int r1);

/// Scatter-add: out[s,:] += Σ_j a[perm[j],:] for j in
/// [offsets[s], offsets[s+1]), for every segment s in [s0, s1); range
/// over *segments* of out. perm/offsets come from a SegmentPlan, whose
/// stable order adds each segment's rows in ascending original row
/// order, and a chunk reads only its own segments' rows.
void ScatterAddRowsPlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, Tensor* out,
                           int s0, int s1);

/// Fused gather→scatter: out[s,:] += Σ_j h[gather[j],:] for j in
/// [offsets[s], offsets[s+1]); range over segments. `gather` is the
/// pre-permuted source array (MessagePlan::src_by_dst for the forward,
/// dst_by_src for the h gradient), so the gathered edge tensor is never
/// materialized.
void GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                      const std::vector<int>& offsets, Tensor* out, int s0,
                      int s1);

/// Weighted fused gather→scatter: out[s,:] += Σ_j h[gather[j],:] ·
/// w[perm[j],0]; range over segments. w is indexed by original edge id
/// via perm.
void GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                              const std::vector<int>& perm,
                              const std::vector<int>& gather,
                              const std::vector<int>& offsets, Tensor* out,
                              int e_s0, int e_s1);

/// Per-edge row dot products: out[e,0] += ⟨x[xi[e],:], y[yi[e],:]⟩;
/// range over edges. The weight gradient of the weighted fused op.
void EdgeDotAcc(const Tensor& x, const Tensor& y, const std::vector<int>& xi,
                const std::vector<int>& yi, Tensor* out, int e0, int e1);

/// Per-segment column-wise max (is_max) or min over the segments
/// [s0, s1) of a SegmentPlan's perm/offsets. Writes extreme values into
/// out rows [s0, s1) (zero for empty segments) and the supplying row
/// index into argrow[s·cols + c] (-1 for empty). Rows are visited in
/// ascending original order and only a strict improvement replaces the
/// extreme, so ties go to the first row. `out` and `argrow` must be
/// pre-sized; their in-range entries are overwritten.
void SegmentExtremePlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, bool is_max,
                           Tensor* out, std::vector<int>* argrow, int s0,
                           int s1);

/// out[argrow[s·cols+c], c] += g[s,c] for argrow ≥ 0; range over
/// segments. Safe to partition by segment: each (segment, column) cell
/// targets a distinct source row because rows belong to one segment.
void SegmentExtremeBackwardAcc(const Tensor& g,
                               const std::vector<int>& argrow, Tensor* out,
                               int s0, int s1);

// --- feature maps ---

/// Random Fourier feature map: out[r,j] = scale·cos(omega[j]·x +
/// phase[j]) with x = z[r, source_dim[j]] (or just x when
/// linear_only); range over rows. Hot per-batch loop of the HSIC
/// decorrelation path (src/core/rff.cc).
void RffMap(const Tensor& z, const std::vector<int>& source_dim,
            const std::vector<float>& omega, const std::vector<float>& phase,
            bool linear_only, float scale, Tensor* out, int r0, int r1);

// --- dropout masks ---

/// out[i] = Mt19937_64::Temper(words[i − i0]) < threshold ? 0 :
/// keep_scale for i in [i0, i1): words are untempered state words
/// (Mt19937_64::TakeWords) and threshold comes from
/// Rng::BernoulliThreshold(p), so each element is 0 exactly where
/// Rng::Bernoulli(p) would have drawn true from the same word.
void DropoutMask(const std::uint64_t* words, std::uint64_t threshold,
                 float keep_scale, Tensor* out, int i0, int i1);

// --- copies ---

/// dst[dst_row_begin + r, :] = src[r, :]; range over rows of src.
void CopyRowsTo(const Tensor& src, Tensor* dst, int dst_row_begin, int r0,
                int r1);

}  // namespace kernels
}  // namespace oodgnn

#endif  // OODGNN_TENSOR_KERNELS_H_
