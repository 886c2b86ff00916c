#ifndef OODGNN_TENSOR_OPS_H_
#define OODGNN_TENSOR_OPS_H_

#include <vector>

#include "src/tensor/segment_plan.h"
#include "src/tensor/variable.h"

namespace oodgnn {

class Rng;

namespace kernels {
struct MatMulTail;
}  // namespace kernels

// ---------------------------------------------------------------------------
// Differentiable operators. Each returns a new Variable whose backward
// function accumulates gradients into its inputs. Shape contracts are
// checked at call time.
// ---------------------------------------------------------------------------

/// Matrix product a[m,k] · b[k,n] -> [m,n].
Variable MatMul(const Variable& a, const Variable& b);

/// tail(a[m,k] · b[k,n]) -> [m,n] in one pass (kernels::MatMulTail):
/// the eval form of MatMul → AddRowVec(bias) → BatchNorm1d eval → Relu,
/// bitwise equal to that chain. It has no backward, so grad mode must
/// be off.
Variable MatMulWithTail(const Variable& a, const Variable& b,
                        const kernels::MatMulTail& tail);

/// Element-wise sum; shapes must match.
Variable Add(const Variable& a, const Variable& b);

/// Element-wise difference; shapes must match.
Variable Sub(const Variable& a, const Variable& b);

/// Element-wise (Hadamard) product; shapes must match.
Variable Mul(const Variable& a, const Variable& b);

/// a[m,n] + row vector b[1,n] broadcast over rows.
Variable AddRowVec(const Variable& a, const Variable& b);

/// a[m,n] with row i scaled by w[i,0] (column-vector broadcast across
/// columns). Used for per-sample weighting.
Variable MulColVec(const Variable& a, const Variable& w);

/// a * s for a constant scalar s.
Variable Scale(const Variable& a, float s);

/// a * s where s is a trainable 1×1 Variable (broadcast to all of a).
Variable MulByScalarVar(const Variable& a, const Variable& s);

/// Element-wise reciprocal 1/x (input must be non-zero).
Variable Reciprocal(const Variable& a);

/// a + s element-wise for a constant scalar s.
Variable AddScalar(const Variable& a, float s);

/// Element-wise nonlinearities.
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope = 0.2f);
Variable Sigmoid(const Variable& a);
Variable TanhOp(const Variable& a);
Variable ExpOp(const Variable& a);
Variable SqrtOp(const Variable& a);   // requires non-negative input
Variable Square(const Variable& a);

/// Sum of all elements -> 1×1.
Variable Sum(const Variable& a);

/// Mean of all elements -> 1×1.
Variable MeanAll(const Variable& a);

// --- message passing over CSR segment plans (DESIGN.md §12) ---
//
// Every gather, scatter and segment reduction runs over a SegmentPlan:
// scatters parallelize over contiguous destination segments and visit
// each segment's rows in ascending original order, so results are
// bitwise identical at every thread count.

/// out[i] = a[plan->items[i]]; items may repeat. [m,n] -> [k,n] with
/// k = plan->num_items() (plan->num_segments must equal a.rows()). The
/// backward scatters through the plan.
Variable RowGather(const Variable& a, const SegmentPlanPtr& plan);

/// out[plan->items[i]] += a[i] into plan->num_segments rows. The
/// scatter-add used for message aggregation.
Variable ScatterAddRows(const Variable& a, const SegmentPlanPtr& plan);

/// Per-segment column-wise sum: rows of `a` in segment s are summed
/// into output row s. Equivalent to ScatterAddRows.
Variable SegmentSum(const Variable& a, const SegmentPlanPtr& plan);

/// Per-segment mean; empty segments produce zero rows.
Variable SegmentMean(const Variable& a, const SegmentPlanPtr& plan);

/// Per-segment element-wise max; empty segments produce zero rows. The
/// gradient flows to the (first) argmax element of each segment/column.
Variable SegmentMax(const Variable& a, const SegmentPlanPtr& plan);

/// Per-segment element-wise min (same conventions as SegmentMax).
Variable SegmentMin(const Variable& a, const SegmentPlanPtr& plan);

/// Fused RowGather(h, plan->src()) → ScatterAddRows(·, plan->dst()):
/// out[v,:] = Σ_{e: dst[e]=v} h[src[e],:] without materializing the
/// [E, d] gathered tensor in either direction.
Variable GatherScatter(const Variable& h, const MessagePlanPtr& plan);

/// Weighted fusion of RowGather → MulColVec(·, w) → ScatterAddRows:
/// out[v,:] = Σ_{e: dst[e]=v} h[src[e],:]·w[e,0]. w is [E,1]; gradients
/// flow to both h and w (per-edge dot products for the latter).
Variable GatherScatterWeighted(const Variable& h, const Variable& w,
                               const MessagePlanPtr& plan);

/// Horizontal concatenation [m,n1],[m,n2],... -> [m, Σn].
Variable ConcatCols(const std::vector<Variable>& parts);

/// Vertical concatenation [m1,n],[m2,n],... -> [Σm, n].
Variable ConcatRows(const std::vector<Variable>& parts);

/// Inverted dropout: during training, zeroes each element with
/// probability p and scales survivors by 1/(1-p); identity otherwise.
Variable Dropout(const Variable& a, float p, Rng* rng, bool training);

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_OPS_H_
