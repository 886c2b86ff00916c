#include "src/nn/mlp.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

Mlp::Mlp(const std::vector<int>& dims, Rng* rng, bool batch_norm)
    : dims_(dims) {
  OODGNN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule(layers_.back().get());
    const bool is_hidden = i + 2 < dims.size();
    if (batch_norm && is_hidden) {
      norms_.push_back(std::make_unique<BatchNorm1d>(dims[i + 1]));
      RegisterModule(norms_.back().get());
    } else if (batch_norm) {
      norms_.push_back(nullptr);
    }
  }
}

Variable Mlp::Forward(const Variable& x, bool training, BatchNorm1d* norm,
                      bool relu) {
  const bool one_pass = !training && !GradMode::Enabled();
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool is_hidden = i + 1 < layers_.size();
    BatchNorm1d* layer_norm = norm;
    if (is_hidden) layer_norm = norms_.empty() ? nullptr : norms_[i].get();
    const bool layer_relu = is_hidden || relu;
    if (one_pass) {
      h = layers_[i]->ForwardNoGrad(h, layer_norm, layer_relu);
      continue;
    }
    h = layers_[i]->Forward(h);
    if (layer_norm != nullptr) {
      h = layer_norm->Forward(h, training, layer_relu);
    } else if (layer_relu) {
      h = Relu(h);
    }
  }
  return h;
}

}  // namespace oodgnn
