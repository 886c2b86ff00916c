#ifndef OODGNN_CORE_DEPENDENCE_H_
#define OODGNN_CORE_DEPENDENCE_H_

#include "src/core/rff.h"
#include "src/tensor/tensor.h"

namespace oodgnn {

/// Diagnostic: the d×d matrix of pairwise RFF dependence values between
/// representation dimensions, D[i][j] = ‖Ĉ_{Z_i,Z_j}‖²_F with uniform
/// weights (zero diagonal). The sum of its upper triangle equals
/// DecorrelationLoss with uniform weights. Useful for inspecting
/// *which* dimensions a trained encoder entangles before/after
/// reweighting.
Tensor PairwiseDependenceMatrix(const Tensor& z, const RffFeatureMap& rff);

}  // namespace oodgnn

#endif  // OODGNN_CORE_DEPENDENCE_H_
