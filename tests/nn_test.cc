#include <cmath>
#include <cstring>
#include <functional>

#include "gtest/gtest.h"
#include "src/nn/batchnorm.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/loss.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

TEST(InitTest, GlorotUniformBounds) {
  Rng rng(1);
  Tensor w = GlorotUniform(100, 50, &rng);
  const float bound = std::sqrt(6.f / 150.f);
  for (int i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -bound);
    EXPECT_LE(w[i], bound);
  }
}

TEST(LinearTest, ShapeAndBias) {
  Rng rng(3);
  Linear layer(4, 7, &rng);
  Variable x = Variable::Constant(Tensor(5, 4));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 7);
  // Zero input -> bias only -> zero (bias initialized to 0).
  EXPECT_FLOAT_EQ(test::MaxAbs(y.value()), 0.f);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(4);
  Linear layer(3, 3, &rng, /*bias=*/false);
  EXPECT_EQ(layer.NumParameters(), 9);
  Linear with_bias(3, 3, &rng);
  EXPECT_EQ(with_bias.NumParameters(), 12);
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(5);
  Linear layer(3, 2, &rng);
  Variable x = Variable::Param(Tensor::RandomNormal(4, 3, &rng));
  std::vector<Variable> leaves = layer.Parameters();
  leaves.push_back(x);
  auto fn = [&] { return Sum(Square(layer.Forward(x))); };
  EXPECT_LT(CheckGradients(leaves, fn).max_relative_error, 5e-2);
}

TEST(MlpTest, HiddenReluFinalLinear) {
  Rng rng(6);
  Mlp mlp({2, 8, 3}, &rng);
  Variable x = Variable::Constant(Tensor::RandomNormal(5, 2, &rng));
  Variable y = mlp.Forward(x, /*training=*/false);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  // Final layer is linear: outputs may be negative.
  bool any_negative = false;
  for (int i = 0; i < y.value().size(); ++i) {
    if (y.value()[i] < 0) any_negative = true;
  }
  EXPECT_TRUE(any_negative);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(7);
  Mlp mlp({4, 8, 2}, &rng);
  // (4*8+8) + (8*2+2) = 40 + 18.
  EXPECT_EQ(mlp.NumParameters(), 58);
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  Rng rng(8);
  BatchNorm1d bn(3);
  Variable x =
      Variable::Constant(Tensor::RandomNormal(64, 3, &rng, 5.f, 2.f));
  Variable y = bn.Forward(x, /*training=*/true);
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (int r = 0; r < 64; ++r) mean += y.value().at(r, c);
    mean /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    double var = 0.0;
    for (int r = 0; r < 64; ++r) {
      var += (y.value().at(r, c) - mean) * (y.value().at(r, c) - mean);
    }
    EXPECT_NEAR(var / 64, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsTrackBatches) {
  Rng rng(9);
  BatchNorm1d bn(2, /*momentum=*/1.f);  // Adopt the batch stats fully.
  Variable x =
      Variable::Constant(Tensor::RandomNormal(128, 2, &rng, 3.f, 1.f));
  bn.Forward(x, /*training=*/true);
  EXPECT_NEAR(bn.running_mean().at(0, 0), 3.f, 0.3f);
  EXPECT_NEAR(bn.running_var().at(0, 1), 1.f, 0.3f);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  Rng rng(10);
  BatchNorm1d bn(2, 1.f);
  Variable train_x =
      Variable::Constant(Tensor::RandomNormal(128, 2, &rng, 3.f, 1.f));
  bn.Forward(train_x, /*training=*/true);
  // A shifted eval batch is normalized by the *running* stats, so its
  // output mean reflects the shift.
  Variable eval_x = Variable::Constant(Tensor(4, 2, 3.f));
  Variable y = bn.Forward(eval_x, /*training=*/false);
  EXPECT_NEAR(y.value().at(0, 0), 0.f, 0.3f);
}

TEST(BatchNormTest, GradCheckTrainingMode) {
  Rng rng(11);
  BatchNorm1d bn(2);
  Variable x = Variable::Param(Tensor::RandomNormal(6, 2, &rng));
  std::vector<Variable> leaves = bn.Parameters();
  leaves.push_back(x);
  auto fn = [&] { return Sum(Square(bn.Forward(x, true))); };
  EXPECT_LT(CheckGradients(leaves, fn).max_relative_error, 5e-2);
}

/// Same shape and the same bytes in every element.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

TEST(BatchNormTest, OneNodeMatchesTheCompositeChainBitwise) {
  // BatchNorm1d::Forward against the composite ops it replaced
  // (test::CompositeBatchNorm), bit for bit: the output, the running
  // statistics, and the gradients of x, γ and β after two Backward
  // calls, which accumulate into the leaves. With momentum 1 the
  // running statistics are the batch mean and variance themselves.
  // Column 0 is constant (zero variance). x is an interior node (0.5·a
  // leaf), so its gradient arrives by the composite's hand-off when the
  // node's closure runs first and by accumulation when a second
  // consumer's ran before it; `consumer` picks neither, before or
  // after. The composite runs once under the reference config, the
  // node under every execution config.
  const std::vector<test::ExecConfig> configs = test::AllExecConfigs();
  struct Result {
    Tensor y, running_mean, running_var, dx, dgamma, dbeta;
  };
  for (int rows : {2, 17, 1031}) {
    for (int cols : {1, 17, 64, 130}) {
      Rng rng(static_cast<std::uint64_t>(rows * 1000 + cols));
      Tensor x0 = Tensor::RandomNormal(rows, cols, &rng, 0.5f, 2.f);
      for (int r = 0; r < rows; ++r) x0.at(r, 0) = 1.25f;
      const Tensor w = Tensor::RandomNormal(rows, cols, &rng);
      const Tensor w2 = Tensor::RandomNormal(rows, cols, &rng);
      const Tensor gamma0 = Tensor::RandomUniform(1, cols, &rng, 0.5f, 1.5f);
      const Tensor beta0 = Tensor::RandomNormal(1, cols, &rng);
      const Tensor mean0 = Tensor::RandomNormal(1, cols, &rng);
      const Tensor var0 = Tensor::RandomUniform(1, cols, &rng, 0.5f, 2.f);
      for (bool training : {true, false}) {
        for (bool relu : {false, true}) {
          for (int consumer : {0, 1, 2}) {
            const float momentum = consumer == 0 ? 1.f : 0.1f;
            const auto run = [&](bool one_node) {
              Variable x_leaf = Variable::Param(x0);
              Variable x = Scale(x_leaf, 0.5f);
              BatchNorm1d norm(cols, momentum);
              std::vector<Variable> params = norm.Parameters();
              params[0].mutable_value() = gamma0;
              params[1].mutable_value() = beta0;
              Tensor* running_mean = norm.Buffers()[0];
              Tensor* running_var = norm.Buffers()[1];
              *running_mean = mean0;
              *running_var = var0;
              Variable y =
                  one_node ? norm.Forward(x, training, relu)
                           : test::CompositeBatchNorm(
                                 x, params[0], params[1], running_mean,
                                 running_var, momentum, 1e-5f, training, relu);
              Variable loss = Sum(Mul(y, Variable::Constant(w)));
              if (consumer != 0) {
                Variable other = Sum(Mul(x, Variable::Constant(w2)));
                loss = consumer == 1 ? Add(loss, other) : Add(other, loss);
              }
              loss.Backward();
              loss.Backward();
              return Result{y.value(),      *running_mean,
                            *running_var,   x_leaf.grad(),
                            params[0].grad(), params[1].grad()};
            };
            const std::string what =
                std::to_string(rows) + "x" + std::to_string(cols) +
                (training ? " train" : " eval") + (relu ? " relu" : "") +
                " consumer " + std::to_string(consumer);
            Result want;
            {
              test::ScopedExecConfig reference(configs[0]);
              want = run(/*one_node=*/false);
            }
            for (const test::ExecConfig& config : configs) {
              test::ScopedExecConfig scoped(config);
              const Result got = run(/*one_node=*/true);
              const std::string where = what + ", " + config.Describe();
              EXPECT_TRUE(SameBits(want.y, got.y)) << "output " << where;
              EXPECT_TRUE(SameBits(want.running_mean, got.running_mean))
                  << "running mean " << where;
              EXPECT_TRUE(SameBits(want.running_var, got.running_var))
                  << "running var " << where;
              EXPECT_TRUE(SameBits(want.dx, got.dx)) << "x grad " << where;
              EXPECT_TRUE(SameBits(want.dgamma, got.dgamma))
                  << "gamma grad " << where;
              EXPECT_TRUE(SameBits(want.dbeta, got.dbeta))
                  << "beta grad " << where;
            }
          }
        }
      }
    }
  }
}

TEST(AdamTest, ConvergesOnLinearRegression) {
  Rng rng(12);
  // y = 2*x0 - 3*x1 + 1, learn [w, b].
  Tensor inputs = Tensor::RandomNormal(64, 2, &rng);
  Tensor targets(64, 1);
  for (int r = 0; r < 64; ++r) {
    targets.at(r, 0) = 2.f * inputs.at(r, 0) - 3.f * inputs.at(r, 1) + 1.f;
  }
  Variable w = Variable::Param(Tensor(2, 1));
  Variable b = Variable::Param(Tensor(1, 1));
  Adam adam({w, b}, 0.05f);
  Variable x = Variable::Constant(inputs);
  for (int step = 0; step < 400; ++step) {
    adam.ZeroGrad();
    Variable pred = AddRowVec(MatMul(x, w), b);
    Variable loss = MseLoss(pred, targets);
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.value()[0], 2.f, 0.05f);
  EXPECT_NEAR(w.value()[1], -3.f, 0.05f);
  EXPECT_NEAR(b.value()[0], 1.f, 0.05f);
}

bool SameState(const OptimizerState& a, const OptimizerState& b) {
  if (a.step_count != b.step_count || a.slots.size() != b.slots.size()) {
    return false;
  }
  for (size_t i = 0; i < a.slots.size(); ++i) {
    if (!a.slots[i].SameShape(b.slots[i]) ||
        std::memcmp(a.slots[i].data(), b.slots[i].data(),
                    sizeof(float) * a.slots[i].size()) != 0) {
      return false;
    }
  }
  return true;
}

TEST(AdamTest, AcceptsOnlyItsOwnSlotLayout) {
  Rng rng(13);
  Variable w = Variable::Param(Tensor::RandomNormal(3, 2, &rng));
  Variable b = Variable::Param(Tensor::RandomNormal(1, 2, &rng));
  Adam adam({w, b}, 0.05f);
  for (int step = 0; step < 3; ++step) {
    adam.ZeroGrad();
    Sum(Square(AddRowVec(w, b))).Backward();
    adam.Step();
  }
  const OptimizerState before = adam.GetState();
  ASSERT_EQ(before.slots.size(), 4u);
  EXPECT_TRUE(adam.Accepts(before));

  OptimizerState short_state = before;
  short_state.slots.pop_back();
  EXPECT_FALSE(adam.Accepts(short_state));

  OptimizerState misshapen = before;
  misshapen.slots[3] = Tensor(2, 1);  // b's second moment, transposed.
  EXPECT_FALSE(adam.Accepts(misshapen));

  OptimizerState negative_step = before;
  negative_step.step_count = -1;
  EXPECT_FALSE(adam.Accepts(negative_step));

  EXPECT_TRUE(SameState(adam.GetState(), before));

  // An accepted state restores the moments and the step count exactly.
  Adam fresh({w, b}, 0.05f);
  fresh.SetState(before);
  EXPECT_TRUE(SameState(fresh.GetState(), before));
}

TEST(LossTest, CrossEntropyMatchesManual) {
  Variable logits =
      Variable::Constant(Tensor::FromData(2, 3, {1, 2, 3, 3, 2, 1}));
  Variable loss = SoftmaxCrossEntropy(logits, {2, 0});
  // Both rows have the true class at logit 3 with [1,2,3] pattern.
  const double p = std::exp(3.0) / (std::exp(1.0) + std::exp(2.0) +
                                    std::exp(3.0));
  EXPECT_NEAR(loss.value()[0], -std::log(p), 1e-5);
}

TEST(LossTest, CrossEntropyWeightsScaleGradient) {
  Variable logits = Variable::Param(Tensor::FromData(1, 2, {0.3f, -0.2f}));
  SoftmaxCrossEntropy(logits, {0}, {2.f}).Backward();
  Tensor weighted = logits.grad();
  logits.ZeroGrad();
  SoftmaxCrossEntropy(logits, {0}).Backward();
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(weighted[i], 2.f * logits.grad()[i], 1e-6);
  }
}

TEST(LossTest, CrossEntropyGradCheck) {
  Rng rng(13);
  Variable logits = Variable::Param(Tensor::RandomNormal(4, 3, &rng));
  std::vector<int> labels = {0, 2, 1, 2};
  std::vector<float> weights = {0.5f, 1.5f, 1.f, 1.f};
  auto fn = [&] { return SoftmaxCrossEntropy(logits, labels, weights); };
  EXPECT_LT(CheckGradients({logits}, fn).max_relative_error, 5e-2);
}

TEST(LossTest, BceMatchesManualAndIgnoresMasked) {
  Variable logits = Variable::Constant(Tensor::FromData(1, 2, {0.f, 100.f}));
  Tensor targets = Tensor::FromData(1, 2, {1.f, 0.f});
  Tensor mask = Tensor::FromData(1, 2, {1.f, 0.f});
  Variable loss = BceWithLogits(logits, targets, mask);
  // Only the first entry counts: BCE(0, 1) = log 2.
  EXPECT_NEAR(loss.value()[0], std::log(2.0), 1e-5);
}

TEST(LossTest, BceGradCheck) {
  Rng rng(14);
  Variable logits = Variable::Param(Tensor::RandomNormal(3, 4, &rng));
  Tensor targets(3, 4);
  Tensor mask(3, 4, 1.f);
  for (int i = 0; i < targets.size(); ++i) {
    targets[i] = rng.Bernoulli(0.5) ? 1.f : 0.f;
  }
  mask.at(1, 2) = 0.f;
  std::vector<float> weights = {1.f, 0.5f, 2.f};
  auto fn = [&] { return BceWithLogits(logits, targets, mask, weights); };
  EXPECT_LT(CheckGradients({logits}, fn).max_relative_error, 5e-2);
}

TEST(LossTest, BceIsNumericallyStableAtExtremes) {
  Variable logits =
      Variable::Param(Tensor::FromData(1, 2, {80.f, -80.f}));
  Tensor targets = Tensor::FromData(1, 2, {1.f, 0.f});
  Tensor mask(1, 2, 1.f);
  Variable loss = BceWithLogits(logits, targets, mask);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  EXPECT_NEAR(loss.value()[0], 0.f, 1e-5);
  loss.Backward();
  EXPECT_TRUE(std::isfinite(logits.grad()[0]));
}

TEST(LossTest, MseMatchesManualWithWeights) {
  Variable pred = Variable::Constant(Tensor::FromData(2, 1, {1.f, 3.f}));
  Tensor targets = Tensor::FromData(2, 1, {0.f, 0.f});
  Variable loss = MseLoss(pred, targets, {1.f, 2.f});
  // (1*1 + 2*9) / 2 = 9.5.
  EXPECT_NEAR(loss.value()[0], 9.5f, 1e-5);
}

TEST(LossTest, MseGradCheck) {
  Rng rng(15);
  Variable pred = Variable::Param(Tensor::RandomNormal(3, 2, &rng));
  Tensor targets = Tensor::RandomNormal(3, 2, &rng);
  std::vector<float> weights = {1.f, 0.2f, 3.f};
  auto fn = [&] { return MseLoss(pred, targets, weights); };
  EXPECT_LT(CheckGradients({pred}, fn).max_relative_error, 5e-2);
}

TEST(ModuleTest, ParametersAreSharedHandles) {
  Rng rng(16);
  Linear layer(2, 2, &rng);
  std::vector<Variable> params = layer.Parameters();
  params[0].mutable_value()[0] = 42.f;
  // The layer sees the mutation (handles share nodes).
  Variable x = Variable::Constant(Tensor::FromData(2, 2, {1, 0, 0, 1}));
  EXPECT_FLOAT_EQ(layer.Forward(x).value().at(0, 0), 42.f);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(17);
  Mlp mlp({2, 4, 1}, &rng);
  Variable x = Variable::Constant(Tensor::RandomNormal(3, 2, &rng));
  Sum(Square(mlp.Forward(x, true))).Backward();
  mlp.ZeroGrad();
  for (const Variable& p : mlp.Parameters()) {
    EXPECT_FLOAT_EQ(test::MaxAbs(p.grad()), 0.f);
  }
}

}  // namespace
}  // namespace oodgnn
