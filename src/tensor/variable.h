#ifndef OODGNN_TENSOR_VARIABLE_H_
#define OODGNN_TENSOR_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

/// A node in the reverse-mode autodiff graph. Owned via shared_ptr by
/// the Variables that reference it and by its consumers (children hold
/// their parents alive), so keeping the loss Variable keeps the whole
/// backward graph reachable.
struct VariableNode {
  Tensor value;
  /// Gradient of the final scalar w.r.t. `value`; allocated lazily
  /// during Backward() and retained afterwards for optimizer reads.
  Tensor grad;
  bool requires_grad = false;
  /// Parents this node was computed from (empty for leaves).
  std::vector<std::shared_ptr<VariableNode>> parents;
  /// Accumulates this node's grad into its parents' grads. Null for
  /// leaves.
  std::function<void(const VariableNode&)> backward;
};

/// Thread-local autograd mode. While disabled, Variable::MakeOp builds
/// plain value nodes: no parents, no backward closure, no grad buffers
/// — a forward pass allocates exactly its forward values and the graph
/// is never retained. Each thread has its own flag, so inference
/// worker threads can run grad-free while a training thread keeps the
/// tape. Enabled by default.
class GradMode {
 public:
  static bool Enabled();
  static void SetEnabled(bool enabled);
};

/// RAII scope that disables tape construction on the current thread
/// (the inference path). Nests correctly: the previous mode is
/// restored on destruction.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Handle to a VariableNode: a Tensor that participates in automatic
/// differentiation. Copies share the node (shallow). Build graphs with
/// the free functions in src/tensor/ops.h, call Backward() on a scalar
/// result, then read grad() on the leaves.
class Variable {
 public:
  /// Undefined variable (no node).
  Variable() = default;

  /// Wraps a value; `requires_grad` marks it as a trainable leaf.
  explicit Variable(Tensor value, bool requires_grad = false);

  /// Convenience factory for a non-trainable constant.
  static Variable Constant(Tensor value) { return Variable(std::move(value)); }

  /// Convenience factory for a trainable leaf parameter.
  static Variable Param(Tensor value) {
    return Variable(std::move(value), /*requires_grad=*/true);
  }

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;
  /// Mutable access to the stored value (optimizer updates on leaves).
  Tensor& mutable_value();

  const Tensor& grad() const;
  Tensor& mutable_grad();

  bool requires_grad() const;

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Zeroes (and allocates if needed) the gradient buffer.
  void ZeroGrad();

  /// Runs reverse-mode accumulation from this node. Without a seed the
  /// variable must be 1×1 and is seeded with 1. Gradients accumulate
  /// into every reachable node with requires_grad (leaves keep them for
  /// the optimizer).
  void Backward();
  void Backward(const Tensor& seed);

  /// Returns a new leaf Variable sharing this node's value but detached
  /// from the graph (no gradient flows through it).
  Variable Detach() const;

  /// Low-level node access for op implementations.
  const std::shared_ptr<VariableNode>& node() const { return node_; }

  /// Builds an interior graph node. `backward` receives the completed
  /// node (value + grad) and must accumulate into parents' grads; it is
  /// dropped if no parent requires a gradient.
  static Variable MakeOp(Tensor value,
                         std::vector<std::shared_ptr<VariableNode>> parents,
                         std::function<void(const VariableNode&)> backward);

 private:
  std::shared_ptr<VariableNode> node_;
};

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_VARIABLE_H_
