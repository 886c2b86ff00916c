#include "src/nn/loss.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/util/check.h"

namespace oodgnn {
namespace {

float WeightAt(const std::vector<float>& weights, size_t i) {
  return weights.empty() ? 1.f : weights[i];
}

}  // namespace

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels,
                             const std::vector<float>& weights) {
  const int m = logits.rows();
  const int classes = logits.cols();
  OODGNN_CHECK_EQ(static_cast<int>(labels.size()), m);
  OODGNN_CHECK(weights.empty() || static_cast<int>(weights.size()) == m);
  OODGNN_CHECK_GT(m, 0);

  // Forward: compute softmax probabilities once and cache them for the
  // backward pass.
  auto probs = std::make_shared<Tensor>(m, classes);
  double total = 0.0;
  for (int r = 0; r < m; ++r) {
    OODGNN_DCHECK(labels[static_cast<size_t>(r)] >= 0 &&
                  labels[static_cast<size_t>(r)] < classes);
    const float* lrow = logits.value().row(r);
    float* prow = probs->row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < classes; ++c) mx = std::max(mx, lrow[c]);
    float denom = 0.f;
    for (int c = 0; c < classes; ++c) {
      prow[c] = std::exp(lrow[c] - mx);
      denom += prow[c];
    }
    for (int c = 0; c < classes; ++c) prow[c] /= denom;
    const float p_true =
        std::max(prow[labels[static_cast<size_t>(r)]], 1e-12f);
    total += -std::log(p_true) *
             WeightAt(weights, static_cast<size_t>(r));
  }
  Tensor out(1, 1, static_cast<float>(total / m));

  auto node = logits.node();
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  auto weights_copy = std::make_shared<std::vector<float>>(weights);
  return Variable::MakeOp(
      std::move(out), {node},
      [node, probs, labels_copy, weights_copy, m,
       classes](VariableNode& self) {
        if (!node->requires_grad) return;
        Tensor& grad = node->GradBuffer();
        const float g = self.grad[0] / static_cast<float>(m);
        for (int r = 0; r < m; ++r) {
          const float w =
              WeightAt(*weights_copy, static_cast<size_t>(r)) * g;
          const float* prow = probs->row(r);
          float* grow = grad.row(r);
          const int y = (*labels_copy)[static_cast<size_t>(r)];
          for (int c = 0; c < classes; ++c) {
            grow[c] += w * (prow[c] - (c == y ? 1.f : 0.f));
          }
        }
      });
}

Variable BceWithLogits(const Variable& logits, const Tensor& targets,
                       const Tensor& mask,
                       const std::vector<float>& weights) {
  const int m = logits.rows();
  const int tasks = logits.cols();
  OODGNN_CHECK(logits.value().SameShape(targets));
  OODGNN_CHECK(logits.value().SameShape(mask));
  OODGNN_CHECK(weights.empty() || static_cast<int>(weights.size()) == m);

  double total = 0.0;
  double count = 0.0;
  for (int r = 0; r < m; ++r) {
    const float w = WeightAt(weights, static_cast<size_t>(r));
    const float* x = logits.value().row(r);
    const float* y = targets.row(r);
    const float* mk = mask.row(r);
    for (int c = 0; c < tasks; ++c) {
      if (mk[c] == 0.f) continue;
      // Stable softplus-based BCE: max(x,0) - x*y + log1p(exp(-|x|)).
      const float loss = std::max(x[c], 0.f) - x[c] * y[c] +
                         std::log1p(std::exp(-std::fabs(x[c])));
      total += w * loss;
      count += 1.0;
    }
  }
  OODGNN_CHECK_GT(count, 0.0) << "BceWithLogits: mask selects no labels";
  Tensor out(1, 1, static_cast<float>(total / count));

  auto node = logits.node();
  auto targets_copy = std::make_shared<Tensor>(targets);
  auto mask_copy = std::make_shared<Tensor>(mask);
  auto weights_copy = std::make_shared<std::vector<float>>(weights);
  const float inv_count = static_cast<float>(1.0 / count);
  return Variable::MakeOp(
      std::move(out), {node},
      [node, targets_copy, mask_copy, weights_copy, inv_count, m,
       tasks](VariableNode& self) {
        if (!node->requires_grad) return;
        Tensor& grad = node->GradBuffer();
        const float g = self.grad[0] * inv_count;
        for (int r = 0; r < m; ++r) {
          const float w =
              WeightAt(*weights_copy, static_cast<size_t>(r)) * g;
          const float* x = node->value.row(r);
          const float* y = targets_copy->row(r);
          const float* mk = mask_copy->row(r);
          float* grow = grad.row(r);
          for (int c = 0; c < tasks; ++c) {
            if (mk[c] == 0.f) continue;
            const float sig = 1.f / (1.f + std::exp(-x[c]));
            grow[c] += w * (sig - y[c]);
          }
        }
      });
}

Variable MseLoss(const Variable& pred, const Tensor& targets,
                 const std::vector<float>& weights) {
  const int m = pred.rows();
  const int tasks = pred.cols();
  OODGNN_CHECK(pred.value().SameShape(targets));
  OODGNN_CHECK(weights.empty() || static_cast<int>(weights.size()) == m);
  OODGNN_CHECK_GT(m * tasks, 0);

  double total = 0.0;
  for (int r = 0; r < m; ++r) {
    const float w = WeightAt(weights, static_cast<size_t>(r));
    const float* p = pred.value().row(r);
    const float* t = targets.row(r);
    for (int c = 0; c < tasks; ++c) {
      const float diff = p[c] - t[c];
      total += w * diff * diff;
    }
  }
  Tensor out(1, 1, static_cast<float>(total / (m * tasks)));

  auto node = pred.node();
  auto targets_copy = std::make_shared<Tensor>(targets);
  auto weights_copy = std::make_shared<std::vector<float>>(weights);
  const float inv = 1.f / static_cast<float>(m * tasks);
  return Variable::MakeOp(
      std::move(out), {node},
      [node, targets_copy, weights_copy, inv, m,
       tasks](VariableNode& self) {
        if (!node->requires_grad) return;
        Tensor& grad = node->GradBuffer();
        const float g = self.grad[0] * inv;
        for (int r = 0; r < m; ++r) {
          const float w =
              WeightAt(*weights_copy, static_cast<size_t>(r)) * g;
          const float* p = node->value.row(r);
          const float* t = targets_copy->row(r);
          float* grow = grad.row(r);
          for (int c = 0; c < tasks; ++c) {
            grow[c] += 2.f * w * (p[c] - t[c]);
          }
        }
      });
}

}  // namespace oodgnn
