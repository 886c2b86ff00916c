#ifndef OODGNN_NN_LINEAR_H_
#define OODGNN_NN_LINEAR_H_

#include "src/nn/module.h"
#include "src/tensor/variable.h"

namespace oodgnn {

class BatchNorm1d;
class Rng;

/// Fully connected layer: y = x·W + b with W [in,out] (Glorot-uniform
/// init) and optional bias b [1,out] (zero init).
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  /// x: [m, in] -> [m, out]. With grad mode off this is
  /// ForwardNoGrad(x, nullptr, false).
  Variable Forward(const Variable& x) const;

  /// Grad-free x·W + b, then `norm` with running statistics (when not
  /// null) and ReLU (when `relu`), in one pass: the matmul applies them
  /// in its store (MatMulWithTail). Bitwise equal to Forward →
  /// norm->Forward(·, false) → Relu with the tape on.
  Variable ForwardNoGrad(const Variable& x, const BatchNorm1d* norm,
                         bool relu) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Variable weight_;
  Variable bias_;  // Undefined when bias is disabled.
};

}  // namespace oodgnn

#endif  // OODGNN_NN_LINEAR_H_
