#ifndef OODGNN_NN_OPTIMIZER_H_
#define OODGNN_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "src/tensor/variable.h"

namespace oodgnn {

/// Snapshot of Adam's slot state for checkpointing: the step count and
/// one first-moment slot per parameter, then one second-moment slot per
/// parameter, each shaped like its parameter.
struct OptimizerState {
  int64_t step_count = 0;
  std::vector<Tensor> slots;
};

/// Adam optimizer (Kingma & Ba, 2015) over a fixed parameter list, with
/// bias correction and optional L2 weight decay added to the gradient.
class Adam {
 public:
  Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on the
  /// parameters.
  void Step();

  /// Clears parameter gradients (call between steps).
  void ZeroGrad();

  /// Copies the slot state (for checkpointing).
  OptimizerState GetState() const;

  /// True when `state` has this optimizer's layout: a non-negative step
  /// count and 2 × params slots, each with its parameter's shape.
  bool Accepts(const OptimizerState& state) const;

  /// Restores a state this optimizer Accepts.
  void SetState(const OptimizerState& state);

 private:
  std::vector<Variable> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace oodgnn

#endif  // OODGNN_NN_OPTIMIZER_H_
