#include "src/core/decorrelation.h"

#include <utility>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace oodgnn {

Variable DecorrelationLoss(const Tensor& features,
                           const std::vector<int>& feature_source_dim,
                           const Variable& weights) {
  return DecorrelationLoss(features, CrossDimensionMask(feature_source_dim),
                           weights);
}

Variable DecorrelationLoss(const Tensor& features, const Tensor& pair_mask,
                           const Variable& weights) {
  OODGNN_TRACE_SCOPE("core/decorrelation_loss/us");
  const int n = features.rows();
  const int m = features.cols();
  OODGNN_CHECK(pair_mask.rows() == m && pair_mask.cols() == m);
  OODGNN_CHECK_EQ(weights.rows(), n);
  OODGNN_CHECK_EQ(weights.cols(), 1);
  OODGNN_CHECK_GT(n, 1);
  const Backend& be = GetBackend();

  // U = diag(w)·F, column-centered (Eq. 5 applies the weights to the
  // features and subtracts the weighted mean): U + (−mean).
  Tensor centered = Tensor::Unfilled(n, m);
  be.MulColVec(features, weights.value(), &centered);
  Tensor neg_mean(1, m);
  be.ColumnSumAcc(centered, &neg_mean);
  be.ScaleInPlace(-1.f / static_cast<float>(n), &neg_mean);
  be.RowBroadcastAcc(neg_mean, &centered);

  // G = UᵀU/(N−1) [M, M] from the aᵀ·b kernel, with the within-
  // dimension blocks masked out. Each unordered pair (i<j) then appears
  // twice (C_ij and C_jiᵀ), hence the ½.
  Tensor masked(m, m);
  be.MatMulTransAAcc(centered, centered, &masked);
  be.ScaleInPlace(1.f / static_cast<float>(n - 1), &masked);
  be.Hadamard(masked, pair_mask, &masked);
  double sum = 0.0;  // Tensor::Sum's order over the squares
  for (int i = 0; i < masked.size(); ++i) sum += masked[i] * masked[i];
  Tensor loss(1, 1, static_cast<float>(sum) * 0.5f);

  return Variable::MakeOp(
      std::move(loss), {weights.node()},
      [pw = weights.node(), f = features, u = std::move(centered),
       gm = std::move(masked)](VariableNode& self) {
        // ∂L/∂U = (2/(N−1))·(I − 11ᵀ/N)·U·(mask ⊙ G); U's columns sum
        // to zero, so the centering projector leaves U·(mask ⊙ G) as it
        // is. Then ∂L/∂w_i = Σ_j F_ij·(∂L/∂U)_ij, as U_ij = w_i·F_ij.
        const Backend& be = GetBackend();
        Tensor h = Tensor::Unfilled(u.rows(), u.cols());
        be.MatMulWithTail(u, gm, kernels::MatMulTail{}, &h);
        Tensor row_dot(u.rows(), 1);
        be.HadamardRowSumAcc(f, h, &row_dot);
        const float scale =
            self.grad[0] * (2.f / static_cast<float>(u.rows() - 1));
        be.Axpy(scale, row_dot, &pw->GradBuffer());
      });
}

}  // namespace oodgnn
