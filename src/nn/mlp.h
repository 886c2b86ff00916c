#ifndef OODGNN_NN_MLP_H_
#define OODGNN_NN_MLP_H_

#include <memory>
#include <vector>

#include "src/nn/batchnorm.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"

namespace oodgnn {

class Rng;

/// Multi-layer perceptron: Linear (+BatchNorm) +ReLU blocks followed by
/// a final Linear with no activation. `dims` lists layer widths, e.g.
/// {64, 128, 10} builds 64→128 (ReLU) →10.
class Mlp : public Module {
 public:
  /// Constructs from layer widths. Requires dims.size() >= 2.
  Mlp(const std::vector<int>& dims, Rng* rng, bool batch_norm = false);

  /// x: [m, dims.front()] -> [m, dims.back()], then `norm` (when not
  /// null) and ReLU (when `relu`) on the last Linear's output. In eval
  /// mode with grad mode off, each Linear applies its BatchNorm and
  /// ReLU in its matmul's store (Linear::ForwardNoGrad); otherwise the
  /// BatchNorm takes the ReLU into its own node (BatchNorm1d::Forward).
  Variable Forward(const Variable& x, bool training,
                   BatchNorm1d* norm = nullptr, bool relu = false);

  int in_features() const { return dims_.front(); }
  int out_features() const { return dims_.back(); }

 private:
  std::vector<int> dims_;
  std::vector<std::unique_ptr<Linear>> layers_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;  // Empty if disabled.
};

}  // namespace oodgnn

#endif  // OODGNN_NN_MLP_H_
