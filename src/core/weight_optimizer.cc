#include "src/core/weight_optimizer.h"

#include <algorithm>

#include "src/core/decorrelation.h"
#include "src/nn/optimizer.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

WeightOptimizerResult GraphWeightOptimizer::Optimize(
    const Tensor& local_z, const RffFeatureMap& rff,
    const GlobalWeightBank* bank) const {
  OODGNN_TRACE_SCOPE("core/weight_optimize/us");
  const int local_n = local_z.rows();
  OODGNN_CHECK_GT(local_n, 1);
  OODGNN_CHECK_EQ(local_z.cols(), rff.input_dim());

  // Assemble Ẑ = [Z^(g_1) … Z^(g_K) ‖ Z^(l)] (Eq. 8) and the constant
  // RFF features of the stack.
  const bool use_bank = bank != nullptr && bank->initialized();
  Tensor stacked_z;
  Tensor global_w;
  if (use_bank) {
    Tensor bank_z = bank->StackedZ();
    OODGNN_CHECK_EQ(bank_z.cols(), local_z.cols());
    stacked_z = Tensor(bank_z.rows() + local_n, local_z.cols());
    for (int r = 0; r < bank_z.rows(); ++r) {
      const float* src = bank_z.row(r);
      std::copy(src, src + bank_z.cols(), stacked_z.row(r));
    }
    for (int r = 0; r < local_n; ++r) {
      const float* src = local_z.row(r);
      std::copy(src, src + local_z.cols(), stacked_z.row(bank_z.rows() + r));
    }
    global_w = bank->StackedW();
  } else {
    stacked_z = local_z;
  }
  const Tensor features = rff.Transform(stacked_z);

  // Local weights: trainable, initialized to 1 (Algorithm 1 line 4).
  Variable local_w = Variable::Param(Tensor(local_n, 1, 1.f));
  Adam inner({local_w}, config_.lr);

  auto decorrelation = [&]() {
    Variable w_hat =
        use_bank
            ? ConcatRows({Variable::Constant(global_w), local_w})
            : local_w;
    return DecorrelationLoss(features, rff.pair_mask(), w_hat);
  };

  // Adam plus the Σw=N projection can overshoot and oscillate; we keep
  // the best iterate seen (the uniform start included), so the returned
  // weights never increase the objective. Each iterate is scored by the
  // decorrelation value on its own step's tape, read before the ℓ2 term
  // is added; the last iterate gets one forward of its own.
  WeightOptimizerResult result;
  double best_loss = 0.0;
  Tensor best_weights;
  for (int epoch = 0;; ++epoch) {
    Variable loss = decorrelation();
    const double current = static_cast<double>(loss.value()[0]);
    if (epoch == 0) {
      result.initial_loss = current;
      best_loss = current;
      best_weights = local_w.value();
    } else if (current < best_loss) {
      best_loss = current;
      best_weights = local_w.value();
    }
    if (epoch >= config_.epochs_reweight) break;

    if (config_.l2_penalty > 0.f) {
      // Mean-normalized ℓ2 keeps the regularizer strength independent
      // of the batch size.
      loss = Add(loss, Scale(MeanAll(Square(local_w)), config_.l2_penalty));
    }
    inner.ZeroGrad();
    loss.Backward();
    inner.Step();

    // Projection: w ≥ 0, w ≤ clamp_max, mean(w) = 1 (Σ w_n = N).
    Tensor& w = local_w.mutable_value();
    float total = 0.f;
    for (int i = 0; i < w.size(); ++i) {
      w[i] = std::clamp(w[i], 0.f, config_.clamp_max);
      total += w[i];
    }
    if (total > 1e-8f) {
      const float scale = static_cast<float>(local_n) / total;
      for (int i = 0; i < w.size(); ++i) w[i] *= scale;
    } else {
      w.Fill(1.f);  // Degenerate: reset to uniform.
    }
  }

  result.final_loss = best_loss;
  result.weights.assign(best_weights.data(), best_weights.data() + local_n);
  return result;
}

}  // namespace oodgnn
