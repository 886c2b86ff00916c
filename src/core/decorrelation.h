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
/// Implementation note: with U = diag(w)·F column-centered and
/// G = UᵀU/(N−1) the full covariance, which contains every block
/// Ĉ_ij, the objective is L = ½‖mask ⊙ G‖_F², the mask zeroing the
/// within-dimension blocks: a single aᵀ·b product instead of O(d²)
/// block computations. The result is one tape node whose closure
/// writes the closed-form gradient
///   ∂L/∂w_i = (2/(N−1))·Σ_j F_ij·[U·(mask ⊙ G)]_ij,
/// one a·b product and a row-wise dot with F.
Variable DecorrelationLoss(const Tensor& features,
                           const std::vector<int>& feature_source_dim,
                           const Variable& weights);

/// The same objective with the [M, M] mask given: 1 where two feature
/// columns come from different dimensions, 0 elsewhere
/// (RffFeatureMap::pair_mask, CrossDimensionMask).
Variable DecorrelationLoss(const Tensor& features, const Tensor& pair_mask,
                           const Variable& weights);

}  // namespace oodgnn

#endif  // OODGNN_CORE_DECORRELATION_H_
