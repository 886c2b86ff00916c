// Semantic validation of the weighted prediction loss (Eq. 6): sample
// weights must actually steer what the encoder learns. We corrupt 40%
// of the training labels and compare uniform weighting against
// an oracle that zeroes out the corrupted samples — the mechanism
// OOD-GNN relies on (its learned weights play the oracle's role for
// spurious-correlation carriers).

#include <algorithm>

#include "gtest/gtest.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/train/metrics.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

struct NoisyDataset {
  GraphDataset data;
  std::vector<bool> corrupted;  // Per training graph.
};

/// Cycles (label 1) vs paths (label 0) with degree features plus two
/// random "identity" feature channels (so a high-capacity model can
/// memorize individual corrupted samples); 40% of the *training*
/// labels flipped.
NoisyDataset MakeNoisyCyclesVsPaths(int per_class, uint64_t seed) {
  NoisyDataset out;
  out.data.num_tasks = 2;
  out.data.feature_dim = 5;
  Rng rng(seed);
  for (int i = 0; i < 2 * per_class; ++i) {
    const int true_label = i % 2;
    const int n = static_cast<int>(rng.UniformInt(5, 10));
    Graph g(n, 5);
    for (int v = 0; v + 1 < n; ++v) g.AddUndirectedEdge(v, v + 1);
    if (true_label == 1) g.AddUndirectedEdge(n - 1, 0);
    std::vector<int> degrees = g.InDegrees();
    for (int v = 0; v < n; ++v) {
      g.x.at(v, std::min(degrees[static_cast<size_t>(v)], 2)) = 1.f;
      g.x.at(v, 3) = static_cast<float>(rng.Normal(0.0, 1.0));
      g.x.at(v, 4) = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    const bool is_train = i < per_class * 3 / 2;
    bool corrupt = false;
    g.label = true_label;
    if (is_train) {
      corrupt = rng.Bernoulli(0.4);
      if (corrupt) g.label = 1 - true_label;
      out.data.train_idx.push_back(out.data.graphs.size());
      out.corrupted.push_back(corrupt);
    } else {
      out.data.test_idx.push_back(out.data.graphs.size());
    }
    out.data.graphs.push_back(std::move(g));
  }
  return out;
}

/// Trains GIN with the given per-train-graph weights and returns clean
/// test accuracy.
double TrainWithWeights(const NoisyDataset& noisy,
                        const std::vector<float>& per_graph_weight,
                        uint64_t seed) {
  Rng rng(seed);
  EncoderConfig config;
  config.feature_dim = noisy.data.feature_dim;
  config.hidden_dim = 32;
  config.num_layers = 2;
  config.dropout = 0.f;
  GraphPredictionModel model(Method::kGin, config, 2, &rng);
  Adam optimizer(model.Parameters(), 5e-3f);

  std::vector<size_t> order = noisy.data.train_idx;
  for (int epoch = 0; epoch < 20; ++epoch) {
    rng.Shuffle(&order);
    for (size_t begin = 0; begin + 2 <= order.size(); begin += 32) {
      const size_t end = std::min(order.size(), begin + 32);
      GraphBatch batch = MakeBatch(noisy.data.graphs, order, begin, end);
      std::vector<float> weights;
      for (size_t i = begin; i < end; ++i) {
        // order[i] indexes the dataset; map back to train position.
        const auto it = std::find(noisy.data.train_idx.begin(),
                                  noisy.data.train_idx.end(), order[i]);
        weights.push_back(per_graph_weight[static_cast<size_t>(
            it - noisy.data.train_idx.begin())]);
      }
      Variable logits = model.Predict(batch, /*training=*/true, &rng);
      Variable loss =
          SoftmaxCrossEntropy(logits, batch.class_labels, weights);
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
    }
  }

  GraphBatch test_batch = MakeBatch(noisy.data.graphs, noisy.data.test_idx,
                                    0, noisy.data.test_idx.size());
  Variable logits = model.Predict(test_batch, /*training=*/false, &rng);
  return Accuracy(logits.value(), test_batch.class_labels);
}

TEST(WeightSemanticsTest, OracleDownweightingBeatsUniform) {
  NoisyDataset noisy = MakeNoisyCyclesVsPaths(120, 44);
  const size_t num_train = noisy.data.train_idx.size();

  std::vector<float> uniform(num_train, 1.f);
  // Oracle: zero weight on corrupted samples, rescaled to mean 1 (the
  // same Σw = N convention the weight optimizer enforces).
  std::vector<float> oracle(num_train, 0.f);
  size_t clean = 0;
  for (size_t i = 0; i < num_train; ++i) {
    if (!noisy.corrupted[i]) ++clean;
  }
  ASSERT_GT(clean, 0u);
  const float clean_weight =
      static_cast<float>(num_train) / static_cast<float>(clean);
  for (size_t i = 0; i < num_train; ++i) {
    oracle[i] = noisy.corrupted[i] ? 0.f : clean_weight;
  }

  const double uniform_acc = TrainWithWeights(noisy, uniform, 5);
  const double oracle_acc = TrainWithWeights(noisy, oracle, 5);
  // The oracle trains on effectively clean labels: it must do strictly
  // better on the clean test set (margin leaves room for seed noise).
  EXPECT_GT(oracle_acc, uniform_acc + 0.02)
      << "uniform=" << uniform_acc << " oracle=" << oracle_acc;
  EXPECT_GT(oracle_acc, 0.9);
}

TEST(WeightSemanticsTest, ZeroWeightSamplesContributeNoGradient) {
  NoisyDataset noisy = MakeNoisyCyclesVsPaths(8, 45);
  GraphBatch batch = MakeBatch(noisy.data.graphs, noisy.data.train_idx, 0,
                               noisy.data.train_idx.size());
  Rng rng(6);
  EncoderConfig config;
  config.feature_dim = 5;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.dropout = 0.f;
  GraphPredictionModel model(Method::kGin, config, 2, &rng);

  // All-zero weights -> the loss is constant 0 and parameters get no
  // gradient at all.
  std::vector<float> zeros(noisy.data.train_idx.size(), 0.f);
  model.ZeroGrad();
  Variable logits = model.Predict(batch, /*training=*/true, &rng);
  Variable loss = SoftmaxCrossEntropy(logits, batch.class_labels, zeros);
  EXPECT_FLOAT_EQ(loss.value()[0], 0.f);
  loss.Backward();
  for (const Variable& p : model.Parameters()) {
    EXPECT_FLOAT_EQ(test::MaxAbs(p.grad()), 0.f);
  }
}

}  // namespace
}  // namespace oodgnn
