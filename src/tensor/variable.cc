#include "src/tensor/variable.h"

#include <unordered_set>

#include "src/util/check.h"

namespace oodgnn {

namespace {

/// Tape construction is per-thread state: inference workers flip their
/// own flag without affecting a concurrently training thread.
thread_local bool tls_grad_enabled = true;

}  // namespace

bool GradMode::Enabled() { return tls_grad_enabled; }

void GradMode::SetEnabled(bool enabled) { tls_grad_enabled = enabled; }

NoGradGuard::NoGradGuard() : previous_(tls_grad_enabled) {
  tls_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { tls_grad_enabled = previous_; }

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<VariableNode>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  OODGNN_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  OODGNN_CHECK(defined());
  return node_->value;
}

const Tensor& Variable::grad() const {
  OODGNN_CHECK(defined());
  return node_->grad;
}

Tensor& Variable::mutable_grad() {
  OODGNN_CHECK(defined());
  return node_->grad;
}

bool Variable::requires_grad() const {
  OODGNN_CHECK(defined());
  return node_->requires_grad;
}

void Variable::ZeroGrad() {
  OODGNN_CHECK(defined());
  if (!node_->grad.SameShape(node_->value)) {
    node_->grad = Tensor(node_->value.rows(), node_->value.cols());
  } else {
    node_->grad.Fill(0.f);
  }
}

namespace {

/// Post-order DFS collecting the graph reachable through `parents`;
/// `order` ends up topologically sorted (parents before children).
void TopoSort(const std::shared_ptr<VariableNode>& node,
              std::unordered_set<VariableNode*>* visited,
              std::vector<VariableNode*>* order) {
  if (!node || visited->count(node.get())) return;
  visited->insert(node.get());
  for (const auto& parent : node->parents) TopoSort(parent, visited, order);
  order->push_back(node.get());
}

}  // namespace

void Variable::Backward() {
  OODGNN_CHECK(defined());
  OODGNN_CHECK_EQ(value().size(), 1)
      << "Backward() without a seed requires a scalar";
  Tensor seed(1, 1, 1.f);
  Backward(seed);
}

void Variable::Backward(const Tensor& seed) {
  OODGNN_CHECK(defined());
  OODGNN_CHECK(seed.SameShape(value()));

  std::unordered_set<VariableNode*> visited;
  std::vector<VariableNode*> order;
  TopoSort(node_, &visited, &order);

  // Zero interior grads; leaf grads accumulate across Backward() calls
  // until the optimizer clears them, matching the usual autograd
  // convention — but here we also accumulate interior grads freshly per
  // call, so everything reachable is (re)allocated and zeroed except
  // pre-existing leaf grads.
  for (VariableNode* node : order) {
    if (!node->grad.SameShape(node->value)) {
      node->grad = Tensor(node->value.rows(), node->value.cols());
    } else if (node->backward) {
      node->grad.Fill(0.f);  // Interior node: recomputed from scratch.
    }
  }
  node_->grad.Add(seed);

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VariableNode* node = *it;
    if (node->backward) node->backward(*node);
  }
}

Variable Variable::Detach() const {
  OODGNN_CHECK(defined());
  return Variable(node_->value);
}

Variable Variable::MakeOp(
    Tensor value, std::vector<std::shared_ptr<VariableNode>> parents,
    std::function<void(const VariableNode&)> backward) {
  Variable out(std::move(value));
  // Grad-free mode: the result carries only its forward value. Parents
  // and the backward closure are dropped before they can pin the graph,
  // so eval/serving passes allocate nothing beyond forward tensors.
  if (!tls_grad_enabled) return out;
  bool any_grad = false;
  for (const auto& parent : parents) {
    OODGNN_CHECK(parent != nullptr);
    if (parent->requires_grad) any_grad = true;
  }
  if (any_grad) {
    out.node_->requires_grad = true;
    out.node_->parents = std::move(parents);
    out.node_->backward = std::move(backward);
  }
  return out;
}

}  // namespace oodgnn
