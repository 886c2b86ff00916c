#include "src/nn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace oodgnn {
namespace {

/// The node's per-column constants as the element map of
/// kernels::MatMulTail (no bias).
kernels::MatMulTail NodeTail(const Tensor& neg_mean, const Tensor& std_dev,
                             const Tensor& gamma, const Tensor& beta,
                             bool relu) {
  kernels::MatMulTail tail;
  tail.neg_mean = neg_mean.data();
  tail.std_dev = std_dev.data();
  tail.gamma = gamma.data();
  tail.beta = beta.data();
  tail.relu = relu;
  return tail;
}

}  // namespace

BatchNorm1d::BatchNorm1d(int num_features, float momentum, float eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      running_mean_(1, num_features),
      running_var_(1, num_features, 1.f) {
  gamma_ = RegisterParameter(Tensor(1, num_features, 1.f));
  beta_ = RegisterParameter(Tensor(1, num_features));
  RegisterBuffer(&running_mean_);
  RegisterBuffer(&running_var_);
}

BatchNorm1d::EvalConstants BatchNorm1d::Eval(int width) const {
  OODGNN_CHECK_EQ(width, num_features_);
  EvalConstants constants;
  constants.neg_mean = Tensor::Unfilled(1, num_features_);
  constants.std_dev = Tensor::Unfilled(1, num_features_);
  for (int c = 0; c < num_features_; ++c) {
    constants.neg_mean[c] = running_mean_[c] * -1.f;
    constants.std_dev[c] = std::sqrt(running_var_[c] + eps_);
  }
  constants.gamma = &gamma_.value();
  constants.beta = &beta_.value();
  return constants;
}

Variable BatchNorm1d::Forward(const Variable& x, bool training, bool relu) {
  OODGNN_CHECK_EQ(x.cols(), num_features_);
  const Backend& be = GetBackend();
  const int d = num_features_;
  // Batch statistics, each rounded as the composite's MeanRows, Scale,
  // Square, AddScalar and SqrtOp round it; an eval (or one-row) batch
  // takes the running statistics as constants instead.
  const bool batch_stats = training && x.rows() > 1;
  const float inv_rows =
      batch_stats ? 1.f / static_cast<float>(x.rows()) : 0.f;
  Tensor neg_mean;
  Tensor std_dev;
  if (batch_stats) {
    Tensor mean(1, d);
    be.ColumnSumAcc(x.value(), &mean);
    neg_mean = Tensor::Unfilled(1, d);
    for (int c = 0; c < d; ++c) {
      mean[c] = mean[c] * inv_rows;
      neg_mean[c] = mean[c] * -1.f;
    }
    Tensor var(1, d);
    be.CenteredSquareSumAcc(x.value(), neg_mean, &var);
    std_dev = Tensor::Unfilled(1, d);
    for (int c = 0; c < d; ++c) {
      var[c] = var[c] * inv_rows;
      running_mean_[c] =
          (1.f - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] =
          (1.f - momentum_) * running_var_[c] + momentum_ * var[c];
      std_dev[c] = std::sqrt(var[c] + eps_);
    }
  } else {
    EvalConstants constants = Eval(x.cols());
    neg_mean = std::move(constants.neg_mean);
    std_dev = std::move(constants.std_dev);
  }
  Tensor out = Tensor::Unfilled(x.rows(), x.cols());
  be.BatchNorm(
      NodeTail(neg_mean, std_dev, gamma_.value(), beta_.value(), relu),
      x.value(), &out);

  return Variable::MakeOp(
      std::move(out), {x.node(), gamma_.node(), beta_.node()},
      [px = x.node(), pg = gamma_.node(), pb = beta_.node(),
       neg_mean = std::move(neg_mean), std_dev = std::move(std_dev),
       inv_rows, batch_stats, relu](VariableNode& self) {
        const Backend& be = GetBackend();
        const kernels::MatMulTail tail =
            NodeTail(neg_mean, std_dev, pg->value, pb->value, relu);
        const Tensor& x = px->value;
        const int d = x.cols();
        // σ's gradient (from Σ dn·x̂ per column) reaches x only when σ
        // holds batch statistics.
        const bool variance = batch_stats && px->requires_grad;
        Tensor dn_xhat;
        if (variance) dn_xhat = Tensor(1, d);
        be.BatchNormGradSumsAcc(
            self.grad, self.value, x, tail,
            pg->requires_grad ? &pg->GradBuffer() : nullptr,
            pb->requires_grad ? &pb->GradBuffer() : nullptr,
            variance ? &dn_xhat : nullptr);
        if (!px->requires_grad) return;
        // The variance path back to each square: DivRowVec's 0 − Σ/σ,
        // SqrtOp's 0.5 / max(σ, 1e-12) (AddScalar passes it on),
        // MeanRows' 1/N and SumRows' broadcast, each into a fresh +0.
        Tensor dsq;
        Tensor dx_sum;
        if (variance) {
          dsq = Tensor::Unfilled(1, d);
          for (int c = 0; c < d; ++c) {
            const float dstd = 0.f - dn_xhat[c] / std_dev[c];
            const float dvar =
                0.f + dstd * (0.5f / std::max(std_dev[c], 1e-12f));
            dsq[c] = 0.f + (0.f + inv_rows * dvar);
          }
          dx_sum = Tensor(1, d);
        }
        // The composite hands its gradient to x when x has none yet.
        const bool accumulate = px->grad.SameShape(x);
        if (!accumulate) px->grad = Tensor::Unfilled(x.rows(), d);
        be.BatchNormGradX(self.grad, self.value, x, tail,
                          variance ? &dsq : nullptr, accumulate, &px->grad,
                          variance ? &dx_sum : nullptr);
        if (!variance) return;
        // The mean's path: Scale(−1), then MeanRows' 1/N and broadcast.
        for (int c = 0; c < d; ++c) {
          dx_sum[c] = 0.f + inv_rows * (0.f + -1.f * dx_sum[c]);
        }
        be.RowBroadcastAcc(dx_sum, &px->grad);
      });
}

}  // namespace oodgnn
