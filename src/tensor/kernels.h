#ifndef OODGNN_TENSOR_KERNELS_H_
#define OODGNN_TENSOR_KERNELS_H_

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
// ---------------------------------------------------------------------------

// --- dense matmul family (cache-blocked, zero-skip on the a operand) ---

/// out[r0:r1, :] += a[m,k] · b[k,n]; range over rows of out (= rows of a).
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0, int r1);

/// out[r0:r1, :] += aᵀ · b, i.e. out[p,j] += Σ_i a[i,p]·b[i,j]; range
/// over rows of out (= columns of a).
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

/// out[r0:r1, :] += a · bᵀ where b is [n,k]: out[i,j] += dot(a[i,:],
/// b[j,:]); range over rows of out (= rows of a).
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

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

// --- row- and column-vector broadcasts; ranges over rows ---

/// out[r,c] = a[r,c] · row[0,c].
void MulRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1);

/// dx[r,c] += g[r,c] · row[0,c]; MulRowVec's adjoint in a.
void MulRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1);

/// out[r,c] = a[r,c] / row[0,c].
void DivRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1);

/// dx[r,c] += g[r,c] / row[0,c]; DivRowVec's adjoint in a.
void DivRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1);

/// out[r,c] = a[r,c] · col[r,0].
void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1);

/// dx[r,c] += g[r,c] · col[r,0]; MulColVec's adjoint in a.
void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1);

// --- reductions and their broadcast adjoints ---

/// out[0,c] += Σ_r a[r,c]; range over columns.
void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1);

/// out[r,0] += Σ_c a[r,c]; range over rows.
void RowSumAcc(const Tensor& a, Tensor* out, int r0, int r1);

/// out[r,:] += row[0,:]; range over rows (adjoint of ColumnSum).
void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1);

/// out[r,:] += col[r,0]; range over rows (adjoint of RowSum).
void ColBroadcastAcc(const Tensor& col, Tensor* out, int r0, int r1);

/// out[r,c] += g[c,r]; range over rows of out (transpose adjoint).
void AddTransposedAcc(const Tensor& g, Tensor* out, int r0, int r1);

/// out[0,c] += Σ_r x[r,c]·y[r,c]; range over columns (row-vector
/// broadcast adjoint).
void HadamardColumnSumAcc(const Tensor& x, const Tensor& y, Tensor* out,
                          int c0, int c1);

/// out[r,0] += Σ_c x[r,c]·y[r,c]; range over rows (column-vector
/// broadcast adjoint).
void HadamardRowSumAcc(const Tensor& x, const Tensor& y, Tensor* out, int r0,
                       int r1);

/// Partial dot product Σ_{i0 ≤ i < i1} a[i]·b[i] over flat indices.
float Dot(const Tensor& a, const Tensor& b, int i0, int i1);

// --- softmax ---

/// Row-wise numerically stable softmax; range over rows.
void SoftmaxRows(const Tensor& a, Tensor* out, int r0, int r1);

/// out[r,:] += y[r,:] ⊙ (g[r,:] − ⟨g[r,:], y[r,:]⟩) where y is the
/// softmax output; range over rows.
void SoftmaxRowsBackwardAcc(const Tensor& y, const Tensor& g, Tensor* out,
                            int r0, int r1);

// --- gather / scatter / segment ops ---

/// out[r,:] = a[index[r],:]; range over rows of out.
void GatherRows(const Tensor& a, const std::vector<int>& index, Tensor* out,
                int r0, int r1);

/// out[r,:] += g[index[r],:]; range over rows of out (scatter adjoint).
void GatherRowsAcc(const Tensor& g, const std::vector<int>& index, Tensor* out,
                   int r0, int r1);

/// out[index[i],:] += a[i,:] for every i whose index falls in
/// [out_r0, out_r1); range over rows of *out*. Each chunk scans the full
/// index vector and touches only its own output rows, so rows of `a`
/// mapping to the same output row accumulate in ascending-i order no
/// matter how the range is split.
void ScatterAddRowsAcc(const Tensor& a, const std::vector<int>& index,
                       Tensor* out, int out_r0, int out_r1);

/// Planned scatter-add: out[s,:] += Σ_j a[perm[j],:] for j in
/// [offsets[s], offsets[s+1]), for every segment s in [s0, s1); range
/// over *segments* of out. perm/offsets come from a SegmentPlan, whose
/// stable order makes the per-row accumulation identical to the
/// ascending-i full-scan of ScatterAddRowsAcc — without scanning rows
/// outside the chunk's segments.
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

/// Planned SegmentExtreme: identical semantics and tie-breaking to
/// SegmentExtreme (ascending original row within each segment, strict
/// improvement), but visits each segment's rows via perm/offsets
/// instead of scanning all of a; range over segments.
void SegmentExtremePlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, bool is_max,
                           Tensor* out, std::vector<int>* argrow, int s0,
                           int s1);

/// Per-segment column-wise max (is_max) or min. Writes extreme values
/// into out rows [s0, s1) (zero for empty segments) and the supplying
/// row index into argrow[s·cols + c] (-1 for empty); range over
/// segments. `out` and `argrow` must be pre-sized; their in-range
/// entries are overwritten.
void SegmentExtreme(const Tensor& a, const std::vector<int>& segment,
                    bool is_max, Tensor* out, std::vector<int>* argrow,
                    int s0, int s1);

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

// --- copies ---

/// dst[dst_row_begin + r, :] = src[r, :]; range over rows of src.
void CopyRowsTo(const Tensor& src, Tensor* dst, int dst_row_begin, int r0,
                int r1);

}  // namespace kernels
}  // namespace oodgnn

#endif  // OODGNN_TENSOR_KERNELS_H_
