#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/decorrelation.h"
#include "src/core/ood_gnn.h"
#include "src/core/rff.h"
#include "src/core/weight_bank.h"
#include "src/core/weight_optimizer.h"
#include "src/nn/optimizer.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

Tensor IndependentColumns(int n, int d, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomNormal(n, d, &rng);
}

/// Columns with strong nonlinear dependence: col1 = col0², col2 = |col0|.
Tensor DependentColumns(int n, uint64_t seed) {
  Rng rng(seed);
  Tensor z(n, 3);
  for (int r = 0; r < n; ++r) {
    const float x = static_cast<float>(rng.Normal(0.0, 1.0));
    z.at(r, 0) = x;
    z.at(r, 1) = x * x - 1.f;  // Uncorrelated with x, but dependent.
    z.at(r, 2) = std::fabs(x) - 0.8f;
  }
  return z;
}

TEST(RffTest, FeatureLayout) {
  Rng rng(1);
  RffConfig config;
  config.num_functions = 3;
  RffFeatureMap rff(4, config, &rng);
  EXPECT_EQ(rff.num_features(), 12);
  const std::vector<int>& source = rff.feature_source_dim();
  // Q consecutive features per dimension.
  EXPECT_EQ(source[0], source[2]);
  EXPECT_NE(source[2], source[3]);
}

TEST(RffTest, LinearModePassesValuesThrough) {
  Rng rng(2);
  RffConfig config;
  config.linear_only = true;
  RffFeatureMap rff(3, config, &rng);
  Tensor z = IndependentColumns(5, 3, 7);
  Tensor f = rff.Transform(z);
  EXPECT_TRUE(AllClose(f, z));
}

TEST(RffTest, DimFractionSubsamples) {
  Rng rng(3);
  RffConfig config;
  config.dim_fraction = 0.5f;
  RffFeatureMap rff(10, config, &rng);
  EXPECT_EQ(rff.num_features(), 5);
  // Selected dims are distinct and in range.
  std::vector<int> dims = rff.feature_source_dim();
  std::sort(dims.begin(), dims.end());
  EXPECT_TRUE(std::adjacent_find(dims.begin(), dims.end()) == dims.end());
  EXPECT_GE(dims.front(), 0);
  EXPECT_LT(dims.back(), 10);
}

TEST(RffTest, OutputRangeIsBounded) {
  Rng rng(4);
  RffConfig config;
  RffFeatureMap rff(2, config, &rng);
  Tensor f = rff.Transform(IndependentColumns(100, 2, 8));
  const float bound = std::sqrt(2.f) + 1e-6f;
  for (int i = 0; i < f.size(); ++i) {
    EXPECT_LE(std::fabs(f[i]), bound);
  }
}

TEST(RffTest, DeterministicGivenSeed) {
  Rng rng1(5);
  Rng rng2(5);
  RffConfig config;
  RffFeatureMap a(3, config, &rng1);
  RffFeatureMap b(3, config, &rng2);
  Tensor z = IndependentColumns(4, 3, 9);
  EXPECT_TRUE(AllClose(a.Transform(z), b.Transform(z)));
}

TEST(DecorrelationTest, NearZeroForIndependentColumns) {
  Rng rng(6);
  RffConfig config;
  config.num_functions = 2;
  RffFeatureMap rff(4, config, &rng);
  const double dep =
      test::DependenceMeasure(IndependentColumns(4000, 4, 10), rff);
  EXPECT_LT(dep, 5e-3);
}

TEST(DecorrelationTest, DetectsNonlinearDependence) {
  Rng rng(7);
  RffConfig config;
  config.num_functions = 4;
  RffFeatureMap rff(3, config, &rng);
  const double dependent =
      test::DependenceMeasure(DependentColumns(4000, 11), rff);
  const double independent =
      test::DependenceMeasure(IndependentColumns(4000, 3, 12), rff);
  EXPECT_GT(dependent, 10.0 * independent);
}

TEST(DecorrelationTest, LinearModeMissesNonlinearDependence) {
  // col1 = col0²−1 is *uncorrelated* with col0; the linear measure
  // must be fooled while the RFF measure is not — exactly the paper's
  // "no RFF" ablation (Fig. 2).
  Tensor z(4000, 2);
  Rng rng(8);
  for (int r = 0; r < 4000; ++r) {
    const float x = static_cast<float>(rng.Normal(0.0, 1.0));
    z.at(r, 0) = x;
    z.at(r, 1) = x * x - 1.f;
  }
  Rng map_rng(9);
  RffConfig linear;
  linear.linear_only = true;
  RffFeatureMap linear_map(2, linear, &map_rng);
  RffConfig fourier;
  fourier.num_functions = 4;
  RffFeatureMap fourier_map(2, fourier, &map_rng);
  const double linear_dep = test::DependenceMeasure(z, linear_map);
  const double fourier_dep = test::DependenceMeasure(z, fourier_map);
  EXPECT_LT(linear_dep, 0.01);
  EXPECT_GT(fourier_dep, 10.0 * std::max(linear_dep, 1e-6));
}

TEST(DecorrelationTest, LossGradCheckWrtWeights) {
  Rng rng(10);
  RffConfig config;
  config.num_functions = 2;
  RffFeatureMap rff(3, config, &rng);
  Tensor features = rff.Transform(IndependentColumns(12, 3, 13));
  Variable w = Variable::Param(Tensor(12, 1, 1.f));
  auto fn = [&] {
    return DecorrelationLoss(features, rff.feature_source_dim(), w);
  };
  EXPECT_LT(CheckGradients({w}, fn, 1e-3f).max_relative_error, 5e-2);
}

TEST(DecorrelationTest, OneNodeMatchesTheCompositeOps) {
  // The one-node loss against test::CompositeDecorrelationLoss, the
  // ~15-op composite it replaced: the same value bit for bit (its
  // forward makes the same roundings), and the closed-form gradient
  // of the trainable local weights within float rounding of autograd
  // through the composite. With and without a constant bank block in
  // front, Q ∈ {1, 2}, on all dimensions and on half of them.
  for (int q : {1, 2}) {
    for (float dim_fraction : {1.f, 0.5f}) {
      for (bool bank : {false, true}) {
        SCOPED_TRACE("Q=" + std::to_string(q) + " dim_fraction=" +
                     std::to_string(dim_fraction) +
                     (bank ? " bank" : " no bank"));
        Rng rng(23 + q);
        RffConfig config;
        config.num_functions = q;
        config.dim_fraction = dim_fraction;
        RffFeatureMap rff(6, config, &rng);
        const int global_n = bank ? 24 : 0;
        const int local_n = 20;
        const Tensor features =
            rff.Transform(IndependentColumns(global_n + local_n, 6, 31));
        Tensor local = Tensor::RandomUniform(local_n, 1, &rng, 0.f, 2.f);
        local[3] = 0.f;  // a clamped-away sample
        const Tensor global =
            Tensor::RandomUniform(global_n, 1, &rng, 0.5f, 1.5f);
        Variable w_one = Variable::Param(local);
        Variable w_ref = Variable::Param(local);
        const auto stacked = [&](const Variable& w) {
          return bank ? ConcatRows({Variable::Constant(global), w}) : w;
        };
        Variable one =
            DecorrelationLoss(features, rff.pair_mask(), stacked(w_one));
        Variable ref = test::CompositeDecorrelationLoss(
            features, rff.feature_source_dim(), stacked(w_ref));
        EXPECT_EQ(one.value()[0], ref.value()[0]);
        EXPECT_GT(one.value()[0], 0.f);
        one.Backward();
        ref.Backward();
        const float scale = test::MaxAbs(w_ref.grad());
        ASSERT_GT(scale, 0.f);
        for (int i = 0; i < local_n; ++i) {
          EXPECT_NEAR(w_one.grad()[i], w_ref.grad()[i], 1e-4f * scale)
              << "weight " << i;
        }
      }
    }
  }
}

TEST(DecorrelationTest, ExcludesWithinDimensionPairs) {
  // With a single dimension there are no cross pairs: loss must be 0.
  Rng rng(11);
  RffConfig config;
  config.num_functions = 3;
  RffFeatureMap rff(1, config, &rng);
  Tensor features = rff.Transform(IndependentColumns(50, 1, 14));
  Variable w = Variable::Constant(Tensor(50, 1, 1.f));
  Variable loss =
      DecorrelationLoss(features, rff.feature_source_dim(), w);
  EXPECT_FLOAT_EQ(loss.value()[0], 0.f);
}

TEST(WeightBankTest, SeedsOnFirstUpdate) {
  GlobalWeightBank bank(4, 2, {0.9f});
  EXPECT_FALSE(bank.initialized());
  Tensor z = Tensor::FromData(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor w(4, 1, 1.f);
  bank.Update(z, w);
  EXPECT_TRUE(bank.initialized());
  EXPECT_TRUE(AllClose(bank.z(0), z));
  EXPECT_TRUE(AllClose(bank.w(0), w));
}

TEST(WeightBankTest, MomentumUpdateMath) {
  GlobalWeightBank bank(2, 1, {0.75f});
  Tensor z0 = Tensor::FromData(2, 1, {1.f, 1.f});
  bank.Update(z0, Tensor(2, 1, 1.f));
  Tensor z1 = Tensor::FromData(2, 1, {5.f, 9.f});
  Tensor w1 = Tensor::FromData(2, 1, {2.f, 0.f});
  bank.Update(z1, w1);
  EXPECT_FLOAT_EQ(bank.z(0).at(0, 0), 0.75f * 1.f + 0.25f * 5.f);
  EXPECT_FLOAT_EQ(bank.z(0).at(1, 0), 0.75f * 1.f + 0.25f * 9.f);
  EXPECT_FLOAT_EQ(bank.w(0).at(0, 0), 0.75f * 1.f + 0.25f * 2.f);
  EXPECT_FLOAT_EQ(bank.w(0).at(1, 0), 0.75f * 1.f + 0.25f * 0.f);
}

TEST(WeightBankTest, SkipsPartialBatches) {
  GlobalWeightBank bank(4, 2, {0.9f});
  bank.Update(Tensor(4, 2, 1.f), Tensor(4, 1, 1.f));
  Tensor before = bank.z(0);
  bank.Update(Tensor(3, 2, 99.f), Tensor(3, 1, 1.f));  // Wrong size.
  EXPECT_TRUE(AllClose(bank.z(0), before));
}

TEST(WeightBankTest, StackedShapes) {
  GlobalWeightBank bank = GlobalWeightBank::WithUniformGamma(3, 4, 2, 0.9f);
  EXPECT_EQ(bank.num_groups(), 3);
  bank.Update(Tensor(4, 2, 1.f), Tensor(4, 1, 1.f));
  EXPECT_EQ(bank.StackedZ().rows(), 12);
  EXPECT_EQ(bank.StackedZ().cols(), 2);
  EXPECT_EQ(bank.StackedW().rows(), 12);
}

TEST(WeightBankTest, MultiGroupGammasDiffer) {
  GlobalWeightBank bank = GlobalWeightBank::WithUniformGamma(2, 2, 1, 0.9f);
  bank.Update(Tensor(2, 1, 0.f), Tensor(2, 1, 1.f));
  bank.Update(Tensor(2, 1, 10.f), Tensor(2, 1, 1.f));
  // Group 0 (γ=0.9) moves less than group 1 (γ=0.63).
  EXPECT_LT(bank.z(0).at(0, 0), bank.z(1).at(0, 0));
}

TEST(WeightOptimizerTest, ReducesDecorrelationLoss) {
  Rng rng(15);
  RffConfig rff_config;
  rff_config.num_functions = 2;
  RffFeatureMap rff(3, rff_config, &rng);
  WeightOptimizerConfig config;
  config.epochs_reweight = 30;
  GraphWeightOptimizer optimizer(config);
  WeightOptimizerResult result =
      optimizer.Optimize(DependentColumns(64, 16), rff, nullptr);
  EXPECT_LT(result.final_loss, result.initial_loss);
}

TEST(WeightOptimizerTest, WeightsSatisfyConstraints) {
  Rng rng(17);
  RffConfig rff_config;
  RffFeatureMap rff(4, rff_config, &rng);
  WeightOptimizerConfig config;
  config.epochs_reweight = 15;
  config.clamp_max = 5.f;
  GraphWeightOptimizer optimizer(config);
  WeightOptimizerResult result =
      optimizer.Optimize(IndependentColumns(32, 4, 18), rff, nullptr);
  ASSERT_EQ(result.weights.size(), 32u);
  double total = 0.0;
  for (float w : result.weights) {
    EXPECT_GE(w, 0.f);
    EXPECT_LE(w, 5.f + 1e-4f);
    total += w;
  }
  EXPECT_NEAR(total, 32.0, 1e-2);  // Σw = N.
}

TEST(WeightOptimizerTest, UsesBankWhenInitialized) {
  Rng rng(19);
  RffConfig rff_config;
  RffFeatureMap rff(3, rff_config, &rng);
  GlobalWeightBank bank(8, 3, {0.9f});
  bank.Update(IndependentColumns(8, 3, 20), Tensor(8, 1, 1.f));
  WeightOptimizerConfig config;
  config.epochs_reweight = 5;
  GraphWeightOptimizer optimizer(config);
  // Different local batch size than the bank groups is fine.
  WeightOptimizerResult result =
      optimizer.Optimize(IndependentColumns(6, 3, 21), rff, &bank);
  EXPECT_EQ(result.weights.size(), 6u);
}

/// GraphWeightOptimizer::Optimize's loop before it read each iterate's
/// decorrelation off its own step's tape: every step runs the
/// objective's forward and then a second decorrelation forward after
/// the projection, so 20 steps make 41 forwards instead of 21.
WeightOptimizerResult TwoForwardLoop(const WeightOptimizerConfig& config,
                                     const Tensor& local_z,
                                     const RffFeatureMap& rff,
                                     const GlobalWeightBank* bank) {
  const int local_n = local_z.rows();
  const bool use_bank = bank != nullptr && bank->initialized();
  Tensor stacked_z = local_z;
  Tensor global_w;
  if (use_bank) {
    const Tensor bank_z = bank->StackedZ();
    stacked_z = Tensor(bank_z.rows() + local_n, local_z.cols());
    for (int i = 0; i < bank_z.size(); ++i) stacked_z[i] = bank_z[i];
    for (int i = 0; i < local_z.size(); ++i) {
      stacked_z[bank_z.size() + i] = local_z[i];
    }
    global_w = bank->StackedW();
  }
  const Tensor features = rff.Transform(stacked_z);
  Variable local_w = Variable::Param(Tensor(local_n, 1, 1.f));
  Adam inner({local_w}, config.lr);
  auto decorrelation = [&]() {
    Variable w_hat =
        use_bank ? ConcatRows({Variable::Constant(global_w), local_w})
                 : local_w;
    return DecorrelationLoss(features, rff.feature_source_dim(), w_hat);
  };

  WeightOptimizerResult result;
  result.initial_loss = static_cast<double>(decorrelation().value()[0]);
  double best_loss = result.initial_loss;
  Tensor best_weights = local_w.value();
  for (int epoch = 0; epoch < config.epochs_reweight; ++epoch) {
    inner.ZeroGrad();
    Variable loss = decorrelation();
    if (config.l2_penalty > 0.f) {
      loss = Add(loss, Scale(MeanAll(Square(local_w)), config.l2_penalty));
    }
    loss.Backward();
    inner.Step();
    Tensor& w = local_w.mutable_value();
    float total = 0.f;
    for (int i = 0; i < w.size(); ++i) {
      w[i] = std::clamp(w[i], 0.f, config.clamp_max);
      total += w[i];
    }
    if (total > 1e-8f) {
      const float scale = static_cast<float>(local_n) / total;
      for (int i = 0; i < w.size(); ++i) w[i] *= scale;
    } else {
      w.Fill(1.f);
    }
    const double current = static_cast<double>(decorrelation().value()[0]);
    if (current < best_loss) {
      best_loss = current;
      best_weights = local_w.value();
    }
  }
  result.final_loss = best_loss;
  result.weights.assign(best_weights.data(), best_weights.data() + local_n);
  return result;
}

TEST(WeightOptimizerTest, MatchesTheTwoForwardLoopBitwise) {
  Rng rng(33);
  RffConfig rff_config;
  rff_config.num_functions = 2;
  RffFeatureMap rff(3, rff_config, &rng);
  GlobalWeightBank bank(8, 3, {0.9f});
  bank.Update(DependentColumns(8, 34), Tensor(8, 1, 1.f));
  const Tensor z = DependentColumns(24, 35);
  for (int epochs : {0, 1, 20}) {
    for (const GlobalWeightBank* b : {static_cast<GlobalWeightBank*>(nullptr),
                                      &bank}) {
      for (float l2 : {0.f, 0.05f}) {
        SCOPED_TRACE(::testing::Message()
                     << epochs << " epochs, bank " << (b != nullptr)
                     << ", l2 " << l2);
        WeightOptimizerConfig config;
        config.epochs_reweight = epochs;
        config.l2_penalty = l2;
        const WeightOptimizerResult want = TwoForwardLoop(config, z, rff, b);
        const WeightOptimizerResult got =
            GraphWeightOptimizer(config).Optimize(z, rff, b);
        ASSERT_EQ(got.weights.size(), want.weights.size());
        EXPECT_EQ(std::memcmp(got.weights.data(), want.weights.data(),
                              sizeof(float) * want.weights.size()),
                  0);
        EXPECT_EQ(std::memcmp(&got.initial_loss, &want.initial_loss,
                              sizeof(double)),
                  0);
        EXPECT_EQ(
            std::memcmp(&got.final_loss, &want.final_loss, sizeof(double)),
            0);
      }
    }
  }
}

TEST(ReweighterTest, EndToEndProducesMeanOneWeights) {
  Rng rng(22);
  OodGnnConfig config;
  config.weights.epochs_reweight = 10;
  OodGnnReweighter reweighter(/*representation_dim=*/4, /*batch_size=*/16,
                              config, &rng);
  Tensor z = IndependentColumns(16, 4, 24);
  std::vector<float> weights = reweighter.ComputeWeights(z);
  ASSERT_EQ(weights.size(), 16u);
  double total = 0.0;
  for (float w : weights) total += w;
  EXPECT_NEAR(total / 16.0, 1.0, 1e-3);
  EXPECT_TRUE(reweighter.bank().initialized());
}

TEST(ReweighterTest, SingletonBatchFallsBackToUniform) {
  Rng rng(25);
  OodGnnConfig config;
  OodGnnReweighter reweighter(3, 8, config, &rng);
  std::vector<float> weights =
      reweighter.ComputeWeights(IndependentColumns(1, 3, 26));
  ASSERT_EQ(weights.size(), 1u);
  EXPECT_FLOAT_EQ(weights[0], 1.f);
}

TEST(ReweighterTest, ReweightingLowersDependenceVsUniform) {
  // Weighted dependence after optimization must be below the uniform-
  // weight dependence on data with planted dependence.
  Rng rng(27);
  RffConfig rff_config;
  rff_config.num_functions = 2;
  RffFeatureMap rff(3, rff_config, &rng);
  Tensor z = DependentColumns(128, 28);
  Variable uniform = Variable::Constant(Tensor(128, 1, 1.f));
  Tensor features = rff.Transform(z);
  const double uniform_loss =
      DecorrelationLoss(features, rff.feature_source_dim(), uniform)
          .value()[0];

  WeightOptimizerConfig config;
  config.epochs_reweight = 40;
  GraphWeightOptimizer optimizer(config);
  WeightOptimizerResult result = optimizer.Optimize(z, rff, nullptr);
  EXPECT_LT(result.final_loss, uniform_loss);
}

// The determinism oracle's OOD-GNN batches (tests/oracle_test.cc) are
// too small for the reweighter's kernels to reach the parallel cutoff,
// so the reweighter takes the oracle's execution configs here, on a
// batch that does: bank seeding, then a momentum update, must
// reproduce the (1 thread, scalar, counters off) reference bitwise.
TEST(ReweighterTest, EveryExecConfigMatchesReferenceBitwise) {
  const Tensor first = IndependentColumns(256, 16, 30);
  const Tensor second = IndependentColumns(256, 16, 31);
  struct Outputs {
    std::vector<float> first, second;
    double loss;
  };
  const auto run = [&](const test::ExecConfig& exec) {
    const test::ScopedExecConfig scoped(exec);
    Rng rng(29);
    OodGnnConfig config;
    config.weights.epochs_reweight = 5;
    OodGnnReweighter reweighter(16, 256, config, &rng);
    Outputs out;
    out.first = reweighter.ComputeWeights(first);
    out.second = reweighter.ComputeWeights(second);
    out.loss = reweighter.last_decorrelation_loss();
    return out;
  };
  const std::vector<test::ExecConfig> configs = test::AllExecConfigs();
  const Outputs reference = run(configs[0]);
  for (size_t c = 1; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].Describe());
    const Outputs got = run(configs[c]);
    ASSERT_EQ(got.first.size(), reference.first.size());
    ASSERT_EQ(got.second.size(), reference.second.size());
    EXPECT_EQ(std::memcmp(got.first.data(), reference.first.data(),
                          sizeof(float) * reference.first.size()),
              0);
    EXPECT_EQ(std::memcmp(got.second.data(), reference.second.data(),
                          sizeof(float) * reference.second.size()),
              0);
    EXPECT_EQ(std::memcmp(&got.loss, &reference.loss, sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace oodgnn
