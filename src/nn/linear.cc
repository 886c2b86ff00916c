#include "src/nn/linear.h"

#include "src/nn/batchnorm.h"
#include "src/nn/init.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(GlorotUniform(in_features, out_features, rng));
  if (bias) {
    bias_ = RegisterParameter(Tensor(1, out_features));
  }
}

Variable Linear::Forward(const Variable& x) const {
  if (!GradMode::Enabled()) return ForwardNoGrad(x, nullptr, false);
  OODGNN_CHECK_EQ(x.cols(), in_features_);
  Variable out = MatMul(x, weight_);
  if (bias_.defined()) out = AddRowVec(out, bias_);
  return out;
}

Variable Linear::ForwardNoGrad(const Variable& x, const BatchNorm1d* norm,
                               bool relu) const {
  OODGNN_CHECK_EQ(x.cols(), in_features_);
  kernels::MatMulTail tail;
  if (bias_.defined()) tail.bias = bias_.value().data();
  BatchNorm1d::EvalConstants bn;  // Outlives the matmul that reads it.
  if (norm != nullptr) {
    bn = norm->Eval(out_features_);
    tail.neg_mean = bn.neg_mean.data();
    tail.std_dev = bn.std_dev.data();
    tail.gamma = bn.gamma->data();
    tail.beta = bn.beta->data();
  }
  tail.relu = relu;
  return MatMulWithTail(x, weight_, tail);
}

}  // namespace oodgnn
