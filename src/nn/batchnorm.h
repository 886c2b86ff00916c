#ifndef OODGNN_NN_BATCHNORM_H_
#define OODGNN_NN_BATCHNORM_H_

#include "src/nn/module.h"
#include "src/tensor/variable.h"

namespace oodgnn {

/// 1-D batch normalization over the row dimension (features are
/// columns). Maintains running statistics for evaluation mode.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int num_features, float momentum = 0.1f,
                       float eps = 1e-5f);

  /// x: [m, num_features], then ReLU when `relu`, as one tape node. In
  /// training mode (m > 1) normalizes with batch statistics
  /// (differentiably) and updates the running estimates; in eval mode,
  /// or on a one-row batch, uses the running estimates as constants.
  /// Values, running statistics and gradients are bitwise those of the
  /// composite ops MeanRows → … → AddRowVec(β) → Relu (kernels.h,
  /// tests/test_util.h): the forward makes three passes over x in training
  /// mode (column sum, centered square sum, normalize-affine-ReLU store)
  /// and one in eval mode; the backward makes three (two in eval mode).
  Variable Forward(const Variable& x, bool training, bool relu = false);

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  /// The per-column constants of Forward(x, false), which computes
  /// ((x + neg_mean) / std_dev) · gamma + beta element by element
  /// (kernels::ApplyTail).
  /// neg_mean and std_dev are rounded as its composite ops round them
  /// (`mean * -1.f` and `std::sqrt(var + eps)`). gamma and beta point
  /// at the parameters.
  struct EvalConstants {
    Tensor neg_mean;
    Tensor std_dev;
    const Tensor* gamma = nullptr;
    const Tensor* beta = nullptr;
  };

  /// The eval constants for an input `width` columns wide, which must
  /// equal num_features (the check Forward makes).
  EvalConstants Eval(int width) const;

 private:
  int num_features_;
  float momentum_;
  float eps_;
  Variable gamma_;
  Variable beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

}  // namespace oodgnn

#endif  // OODGNN_NN_BATCHNORM_H_
