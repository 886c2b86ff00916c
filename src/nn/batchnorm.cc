#include "src/nn/batchnorm.h"

#include <cmath>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

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

Variable BatchNorm1d::Forward(const Variable& x, bool training) {
  OODGNN_CHECK_EQ(x.cols(), num_features_);
  Variable mean;
  Variable var;
  if (training && x.rows() > 1) {
    mean = MeanRows(x);
    Variable centered = AddRowVec(x, Scale(mean, -1.f));
    var = MeanRows(Square(centered));
    // Update running stats from the batch values (outside the graph).
    for (int c = 0; c < num_features_; ++c) {
      running_mean_.at(0, c) = (1.f - momentum_) * running_mean_.at(0, c) +
                               momentum_ * mean.value().at(0, c);
      running_var_.at(0, c) = (1.f - momentum_) * running_var_.at(0, c) +
                              momentum_ * var.value().at(0, c);
    }
    Variable std = SqrtOp(AddScalar(var, eps_));
    Variable normalized = DivRowVec(centered, std);
    return AddRowVec(MulRowVec(normalized, gamma_), beta_);
  }
  // Eval (or degenerate single-row batch): running statistics.
  mean = Variable::Constant(running_mean_);
  var = Variable::Constant(running_var_);
  Variable centered = AddRowVec(x, Scale(mean, -1.f));
  Variable std = SqrtOp(AddScalar(var, eps_));
  Variable normalized = DivRowVec(centered, std);
  return AddRowVec(MulRowVec(normalized, gamma_), beta_);
}

}  // namespace oodgnn
