#include "src/nn/optimizer.h"

#include <cmath>

#include "src/util/check.h"

namespace oodgnn {

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Variable& p : params_) {
    OODGNN_CHECK(p.defined() && p.requires_grad())
        << "optimizer parameters must be trainable leaves";
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::ZeroGrad() {
  for (Variable& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++step_count_;
  const float bias1 = 1.f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (p.grad().empty()) continue;
    Tensor& value = p.mutable_value();
    const Tensor& grad = p.grad();
    for (int j = 0; j < value.size(); ++j) {
      float g = grad[j] + weight_decay_ * value[j];
      m_[i][j] = beta1_ * m_[i][j] + (1.f - beta1_) * g;
      v_[i][j] = beta2_ * v_[i][j] + (1.f - beta2_) * g * g;
      const float m_hat = m_[i][j] / bias1;
      const float v_hat = v_[i][j] / bias2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

OptimizerState Adam::GetState() const {
  OptimizerState state;
  state.step_count = step_count_;
  state.slots.reserve(m_.size() + v_.size());
  state.slots.insert(state.slots.end(), m_.begin(), m_.end());
  state.slots.insert(state.slots.end(), v_.begin(), v_.end());
  return state;
}

bool Adam::Accepts(const OptimizerState& state) const {
  if (state.step_count < 0 || state.slots.size() != 2 * params_.size()) {
    return false;
  }
  for (size_t i = 0; i < state.slots.size(); ++i) {
    if (!state.slots[i].SameShape(params_[i % params_.size()].value())) {
      return false;
    }
  }
  return true;
}

void Adam::SetState(const OptimizerState& state) {
  OODGNN_CHECK(Accepts(state)) << "optimizer state does not fit this Adam";
  const size_t n = params_.size();
  for (size_t i = 0; i < n; ++i) {
    m_[i] = state.slots[i];
    v_[i] = state.slots[n + i];
  }
  step_count_ = state.step_count;
}

}  // namespace oodgnn
