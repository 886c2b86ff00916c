#include "src/core/decorrelation.h"

#include "src/obs/trace.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

Variable DecorrelationLoss(const Tensor& features,
                           const std::vector<int>& feature_source_dim,
                           const Variable& weights) {
  OODGNN_TRACE_SCOPE("core/decorrelation_loss/us");
  const int n = features.rows();
  const int m = features.cols();
  OODGNN_CHECK_EQ(static_cast<int>(feature_source_dim.size()), m);
  OODGNN_CHECK_EQ(weights.rows(), n);
  OODGNN_CHECK_EQ(weights.cols(), 1);
  OODGNN_CHECK_GT(n, 1);

  // U = diag(w)·F, column-centered (Eq. 5 applies the weights to the
  // features and subtracts the weighted mean).
  Variable f = Variable::Constant(features);
  Variable weighted = MulColVec(f, weights);
  Variable mean = MeanRows(weighted);
  Variable centered = AddRowVec(weighted, Scale(mean, -1.f));

  // Full cross-covariance G [M, M] in one GEMM.
  Variable cov = Scale(MatMul(Transpose(centered), centered),
                       1.f / static_cast<float>(n - 1));

  // Zero out within-dimension blocks; each unordered pair (i<j) then
  // appears twice (C_ij and C_jiᵀ), hence the ½ factor.
  Tensor mask(m, m);
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      mask.at(a, b) = feature_source_dim[static_cast<size_t>(a)] !=
                              feature_source_dim[static_cast<size_t>(b)]
                          ? 1.f
                          : 0.f;
    }
  }
  Variable masked = Mul(cov, Variable::Constant(mask));
  return Scale(Sum(Square(masked)), 0.5f);
}

}  // namespace oodgnn
