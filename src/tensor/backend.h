#ifndef OODGNN_TENSOR_BACKEND_H_
#define OODGNN_TENSOR_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/tensor/segment_plan.h"
#include "src/tensor/tensor.h"

namespace oodgnn {

namespace kernels {
struct MatMulTail;
}  // namespace kernels

class Rng;
class ThreadPool;

/// Execution backend for the numeric kernels in src/tensor/kernels.h.
/// A backend owns exactly one policy decision: how an index range
/// [0, n) is partitioned into chunks and where those chunks run, on
/// its pool of num_threads() threads (src/util/thread_pool.h; one
/// thread spawns no worker and runs every range inline). All arithmetic
/// lives in the kernels, whose results never depend on the partition,
/// so every thread count produces bitwise identical results (the
/// determinism contract; see DESIGN.md §8).
///
/// The autograd ops (src/tensor/ops.cc) and the non-autograd hot paths
/// (core/rff, core/hsic, core/dependence, train eval) call the active
/// backend via GetBackend(). Each entry point below checks its shapes
/// and hands its kernel's scalar body and, where the kernel has one,
/// its vector body (src/tensor/simd.h) to one dispatch routine in
/// backend.cc, which picks the body, counts the call and partitions
/// the range.
class Backend {
 public:
  /// A backend over a pool of `num_threads` threads (at least 1).
  explicit Backend(int num_threads);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  int num_threads() const;

  /// Runs fn(begin, end) over a deterministic partition of [0, n) into
  /// contiguous chunks, or over the whole range inline when `flops` (an
  /// estimate of the total work) is too small to amortize dispatch.
  /// Chunk boundaries depend only on n and the thread count, never on
  /// timing.
  void ForCost(int n, std::int64_t flops,
               const std::function<void(int, int)>& fn) const;

  /// True when ForCost(n, flops, …) would hand the range to the pool
  /// rather than run it inline. Exposed so the per-kernel perf
  /// counters can record the serial-vs-parallel split without
  /// re-deriving the dispatch policy.
  bool WouldParallelize(int n, std::int64_t flops) const;

  // --- dense kernel entry points (shape-checked, partitioned via ForCost) ---

  /// out = tail(a[m,k] · b[k,n]) in one pass (kernels::MatMulTail):
  /// every element is written, so out may be unfilled. An empty tail
  /// gives the plain product. Counted as `matmul`.
  void MatMulWithTail(const Tensor& a, const Tensor& b,
                      const kernels::MatMulTail& tail, Tensor* out) const;
  /// out += aᵀ · b (out is [a.cols, b.cols]).
  void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out) const;
  /// out += a · bᵀ (out is [a.rows, b.rows]).
  void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out) const;

  /// y += alpha · x (flat element-wise).
  void Axpy(float alpha, const Tensor& x, Tensor* y) const;
  /// y *= s.
  void ScaleInPlace(float s, Tensor* y) const;
  /// y += s.
  void AddScalarAcc(float s, Tensor* y) const;
  /// out = a ⊙ b.
  void Hadamard(const Tensor& a, const Tensor& b, Tensor* out) const;
  /// y += g ⊙ x.
  void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y) const;
  /// out = x > 0 ? x : 0 (+0 for −0, NaN and −inf).
  void Relu(const Tensor& x, Tensor* out) const;
  /// dx += g ⊙ (x > 0 ? 1 : 0).
  void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx) const;
  /// dx += g ⊙ (2·x).
  void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx) const;

  /// out[r,:] = a[r,:] · col[r,0].
  void MulColVec(const Tensor& a, const Tensor& col, Tensor* out) const;
  /// dx[r,:] += g[r,:] · col[r,0].
  void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx) const;

  /// out[1,n] += column sums of a[m,n].
  void ColumnSumAcc(const Tensor& a, Tensor* out) const;
  /// out[r,:] += row[0,:] for every row.
  void RowBroadcastAcc(const Tensor& row, Tensor* out) const;
  /// out[m,1] += row-wise Σ_c x ⊙ y.
  void HadamardRowSumAcc(const Tensor& x, const Tensor& y, Tensor* out) const;
  /// Σ_i a[i]·b[i] in kernels::Dot's fixed 8-lane association, on
  /// the calling thread at every thread count (determinism contract).
  float Dot(const Tensor& a, const Tensor& b) const;

  // --- the BatchNorm1d (+ ReLU) tape node (kernels.h states each
  // contract; `tail` holds its per-column constants, without bias) ---

  /// out = kernels::ApplyTail(tail, x) element by element: the node's
  /// normalize, affine and ReLU store, written, never read, so out may
  /// be unfilled. Counted as `batch_norm`.
  void BatchNorm(const kernels::MatMulTail& tail, const Tensor& x,
                 Tensor* out) const;
  /// out[1,n] += Σ_r (x + neg_mean)², a column-partitioned pass.
  void CenteredSquareSumAcc(const Tensor& x, const Tensor& neg_mean,
                            Tensor* out) const;
  /// kernels::BatchNormGradSumsAcc over every column; each non-null
  /// output is a [1,n] row.
  void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                            const kernels::MatMulTail& tail, Tensor* dgamma,
                            Tensor* dbeta, Tensor* dn_xhat) const;
  /// kernels::BatchNormGradX over every column; dsq (train mode) and
  /// dx_sum are [1,n] rows or null.
  void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                      const kernels::MatMulTail& tail, const Tensor* dsq,
                      bool accumulate, Tensor* dx, Tensor* dx_sum) const;

  /// Random Fourier feature map: out[r,j] = scale·cos(omega[j]·x +
  /// phase[j]) with x = z[r, source_dim[j]] (plain gather when
  /// linear_only). The per-batch hot loop of the HSIC decorrelation
  /// path (src/core/rff.cc).
  void RffMap(const Tensor& z, const std::vector<int>& source_dim,
              const std::vector<float>& omega,
              const std::vector<float>& phase, bool linear_only, float scale,
              Tensor* out) const;

  /// out[r,:] = a[index[r],:].
  void GatherRows(const Tensor& a, const std::vector<int>& index,
                  Tensor* out) const;
  /// out[r,:] += g[index[r],:].
  void GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                     Tensor* out) const;
  /// Scatter-add (segment sum): out[s,:] += Σ a[plan-ordered rows of
  /// s,:]. Parallelizes over destination segments and adds each
  /// segment's rows in ascending original order: GatherScatterAcc's
  /// kernel with plan.perm as the gather list, counted as
  /// `scatter_planned`.
  void ScatterAddRowsPlanned(const Tensor& a, const SegmentPlan& plan,
                             Tensor* out) const;
  /// Fused gather→scatter: out[s,:] += Σ_j h[gather[j],:] over the
  /// plan's segment j-ranges. `gather` must be pre-permuted into plan
  /// order (MessagePlan::src_by_dst / dst_by_src).
  void GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                        const SegmentPlan& plan, Tensor* out) const;
  /// Weighted fused gather→scatter: out[s,:] += Σ_j h[gather[j],:] ·
  /// w[plan.perm[j],0] (w is [E,1], indexed by original edge).
  void GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                                const std::vector<int>& gather,
                                const SegmentPlan& plan, Tensor* out) const;
  /// out[e,0] += ⟨x[xi[e],:], y[yi[e],:]⟩ per edge.
  void EdgeDotAcc(const Tensor& x, const Tensor& y,
                  const std::vector<int>& xi, const std::vector<int>& yi,
                  Tensor* out) const;
  /// Per-segment max/min with argmax rows recorded for the backward;
  /// parallelizes over segments.
  void SegmentExtremePlanned(const Tensor& a, const SegmentPlan& plan,
                             bool is_max, Tensor* out,
                             std::vector<int>* argrow) const;
  /// Routes g[s,c] back to the recorded argmax rows.
  void SegmentExtremeBackwardAcc(const Tensor& g,
                                 const std::vector<int>& argrow,
                                 Tensor* out) const;

  /// dst[dst_row_begin + r, :] = src[r, :] for every row of src.
  void CopyRowsTo(const Tensor& src, Tensor* dst, int dst_row_begin) const;

  /// Dropout mask: element i (flat order) is 0 where the i-th next
  /// rng->Bernoulli(p) would be true, keep_scale elsewhere. Consumes
  /// exactly the mask->size() words those calls would, so the mask and
  /// every later draw match the per-element loop bitwise. Writes every
  /// element (the mask may be unfilled). Always serial: the element
  /// order is the stream order. Requires 0 <= p < 1.
  void DropoutMask(double p, float keep_scale, Rng* rng, Tensor* mask) const;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// The process-wide backend used by ops and the core hot paths. Lazily
/// initialized from the OODGNN_THREADS environment variable (default:
/// one thread). Not safe to swap while compute is in flight.
Backend& GetBackend();

/// Installs a backend of `threads` threads as the process-wide one.
void SetBackendThreads(int threads);

/// RAII backend swap for tests and benchmarks: a backend of `threads`
/// threads for the guard's scope, then the previous one again.
class ScopedBackendThreads {
 public:
  explicit ScopedBackendThreads(int threads);
  ~ScopedBackendThreads();
  ScopedBackendThreads(const ScopedBackendThreads&) = delete;
  ScopedBackendThreads& operator=(const ScopedBackendThreads&) = delete;

 private:
  std::unique_ptr<Backend> previous_;
};

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_BACKEND_H_
