#ifndef OODGNN_CORE_DECORRELATION_H_
#define OODGNN_CORE_DECORRELATION_H_

#include <vector>

#include "src/core/rff.h"
#include "src/tensor/variable.h"

namespace oodgnn {

/// Builds the weighted decorrelation objective of Eqs. (5)/(7):
///   L(w) = Σ_{1≤i<j≤d} ‖ Ĉ^w_{Z_i,Z_j} ‖_F²
/// where Ĉ^w is the weighted partial cross-covariance between the RFF
/// features of representation dimensions i and j.
///
/// `features` is the (constant) RFF feature matrix [N, M] produced by
/// RffFeatureMap::Transform; `feature_source_dim` maps each feature
/// column to its source representation dimension (same-dimension pairs
/// are excluded from the objective); `weights` is the [N,1] sample
/// weight column, typically a concatenation of constant global weights
/// and a trainable local block.
///
/// Implementation note: with U = diag(w)·F and Ū its column-centered
/// version, the full covariance G = ŪᵀŪ/(N−1) contains every block
/// Ĉ_ij, so the objective is ½·Σ of squared entries of G outside the
/// within-dimension diagonal blocks — a single GEMM instead of O(d²)
/// block computations.
Variable DecorrelationLoss(const Tensor& features,
                           const std::vector<int>& feature_source_dim,
                           const Variable& weights);

}  // namespace oodgnn

#endif  // OODGNN_CORE_DECORRELATION_H_
