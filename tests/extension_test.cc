// Tests for components beyond the paper's core: GAT and GraphSAGE
// extension layers, the exact-HSIC reference estimator, and the
// checkpointed-model / RFF-vs-HSIC cross-validations.

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/decorrelation.h"
#include "src/core/hsic.h"
#include "src/gnn/gat_conv.h"
#include "src/gnn/model_zoo.h"
#include "src/gnn/sage_conv.h"
#include "src/graph/batch.h"
#include "src/tensor/ops.h"
#include "src/train/trainer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

GraphBatch StarBatch(int feature_dim = 3) {
  Graph g(4, feature_dim);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(0, 2);
  g.AddUndirectedEdge(0, 3);
  g.label = 0;
  Rng rng(1);
  g.x = Tensor::RandomNormal(4, feature_dim, &rng);
  return GraphBatch::FromGraphs({&g});
}

TEST(GatConvTest, OutputShape) {
  Rng rng(2);
  GatConv conv(3, 8, /*num_heads=*/2, &rng);
  GraphBatch batch = StarBatch();
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.cols(), 8);
}

TEST(GatConvTest, AttentionIsConvexCombination) {
  // With one head and identical transformed features, the output equals
  // that shared feature regardless of attention values (softmax sums to
  // 1 over each node's in-edges + self loop).
  Rng rng(3);
  GatConv conv(3, 4, 1, &rng);
  GraphBatch batch = StarBatch();
  Tensor same(4, 3);
  for (int v = 0; v < 4; ++v) {
    same.at(v, 0) = 1.f;
    same.at(v, 1) = -2.f;
    same.at(v, 2) = 0.5f;
  }
  Variable out = conv.Forward(Variable::Constant(same), batch);
  for (int v = 1; v < 4; ++v) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(out.value().at(v, c), out.value().at(0, c), 1e-5);
    }
  }
}

TEST(GatConvTest, HandlesIsolatedNodesViaSelfLoop) {
  Rng rng(4);
  GatConv conv(3, 4, 2, &rng);
  Graph g(3, 3);  // No edges.
  Rng frng(5);
  g.x = Tensor::RandomNormal(3, 3, &frng);
  GraphBatch batch = GraphBatch::FromGraphs({&g});
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  for (int i = 0; i < out.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.value()[i]));
  }
  // Every node attends only to itself -> output is its own transform,
  // generally non-zero.
  EXPECT_GT(test::MaxAbs(out.value()), 0.f);
}

TEST(GatConvTest, BackpropReachesAttentionParameters) {
  Rng rng(6);
  GatConv conv(3, 4, 2, &rng);
  GraphBatch batch = StarBatch();
  conv.ZeroGrad();
  Variable out = conv.Forward(
      Variable::Constant(batch.features), batch);
  Sum(Square(out)).Backward();
  float max_grad = 0.f;
  for (const Variable& p : conv.Parameters()) {
    max_grad = std::max(max_grad, test::MaxAbs(p.grad()));
  }
  EXPECT_GT(max_grad, 0.f);
}

TEST(SageConvTest, MeanAggregation) {
  Rng rng(7);
  SageConv conv(2, 2, &rng);
  // Verify against a manual computation using the layer's own weights.
  Graph g(3, 2);
  g.AddEdge(1, 0);
  g.AddEdge(2, 0);
  g.x.at(1, 0) = 2.f;
  g.x.at(2, 0) = 4.f;
  GraphBatch batch = GraphBatch::FromGraphs({&g});
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(out.rows(), 3);
  // Node 0 aggregates mean([2,0],[4,0]) = [3,0] through the neighbor
  // path; an equivalent graph whose single in-neighbor carries [3,0]
  // must produce the same node-0 output.
  Graph equivalent(2, 2);
  equivalent.AddEdge(1, 0);
  equivalent.x.at(1, 0) = 3.f;
  GraphBatch eq_batch = GraphBatch::FromGraphs({&equivalent});
  Variable eq_out =
      conv.Forward(Variable::Constant(eq_batch.features), eq_batch);
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(out.value().at(0, c), eq_out.value().at(0, c), 1e-5);
  }
}

TEST(ExtensionMethodsTest, TrainEndToEnd) {
  // Labels are recoverable from node (degree) features: attention-based
  // models like GAT normalize away raw degree, so the signal must be in
  // the features themselves.
  GraphDataset ds;
  ds.num_tasks = 2;
  ds.feature_dim = 3;
  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    Graph g(5, 3);
    if (label) {
      for (int v = 0; v + 1 < 5; ++v) g.AddUndirectedEdge(v, v + 1);
    }
    std::vector<int> degrees = g.InDegrees();
    for (int v = 0; v < 5; ++v) {
      g.x.at(v, std::min(degrees[static_cast<size_t>(v)], 2)) = 1.f;
    }
    g.label = label;
    (i < 40 ? ds.train_idx : ds.test_idx).push_back(ds.graphs.size());
    ds.graphs.push_back(std::move(g));
  }
  TrainConfig config;
  config.epochs = 15;
  config.batch_size = 16;
  config.lr = 5e-3f;
  config.encoder.hidden_dim = 8;
  config.encoder.num_layers = 2;
  config.encoder.dropout = 0.f;
  for (Method method : ExtensionMethods()) {
    TrainResult result = TrainAndEvaluate(method, ds, config);
    EXPECT_GT(result.test_metric, 0.8) << MethodName(method);
  }
}

TEST(ExtensionMethodsTest, NamesAndZoo) {
  EXPECT_STREQ(MethodName(Method::kGat), "GAT");
  EXPECT_STREQ(MethodName(Method::kGraphSage), "GraphSAGE");
  EXPECT_EQ(ExtensionMethods().size(), 2u);
  // Extensions are NOT part of the paper's table rows.
  for (Method m : AllMethods()) {
    EXPECT_NE(m, Method::kGat);
    EXPECT_NE(m, Method::kGraphSage);
  }
}

// ---------------------------------------------------------------------------
// Exact HSIC reference.
// ---------------------------------------------------------------------------

Tensor Column(int n, uint64_t seed, bool dependent_on = false,
              const Tensor* base = nullptr) {
  Rng rng(seed);
  Tensor out(n, 1);
  for (int r = 0; r < n; ++r) {
    if (dependent_on && base) {
      const float x = base->at(r, 0);
      out.at(r, 0) = x * x - 1.f;
    } else {
      out.at(r, 0) = static_cast<float>(rng.Normal(0.0, 1.0));
    }
  }
  return out;
}

TEST(HsicTest, IndependentNearZeroDependentLarge) {
  const int n = 300;
  Tensor x = Column(n, 10);
  Tensor independent = Column(n, 11);
  Tensor dependent = Column(n, 12, /*dependent_on=*/true, &x);
  const double h_indep = ExactHsic(x, independent);
  const double h_dep = ExactHsic(x, dependent);
  EXPECT_GT(h_dep, 10.0 * h_indep);
}

TEST(HsicTest, SymmetricInArguments) {
  Tensor x = Column(100, 13);
  Tensor y = Column(100, 14);
  EXPECT_NEAR(ExactHsic(x, y, 1.0), ExactHsic(y, x, 1.0), 1e-12);
}

TEST(HsicTest, NonNegative) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Tensor x = Column(60, 20 + seed);
    Tensor y = Column(60, 40 + seed);
    EXPECT_GE(ExactHsic(x, y), -1e-9);
  }
}

TEST(HsicTest, MedianBandwidthReasonable) {
  Tensor x = Tensor::ColVector({0.f, 1.f, 2.f, 3.f});
  // Pairwise distances {1,1,1,2,2,3} -> median 2 (upper median).
  EXPECT_NEAR(MedianBandwidth(x), 2.0, 1e-9);
  Tensor constant(5, 1, 2.f);
  EXPECT_DOUBLE_EQ(MedianBandwidth(constant), 1.0);
}

TEST(HsicTest, RffMeasureAgreesWithExactHsicOrdering) {
  // The RFF-based DependenceMeasure must order datasets the same way
  // the exact HSIC does: dependent data above independent data.
  const int n = 400;
  Rng base_rng(15);
  Tensor dependent(n, 2);
  Tensor independent(n, 2);
  for (int r = 0; r < n; ++r) {
    const float x = static_cast<float>(base_rng.Normal(0.0, 1.0));
    dependent.at(r, 0) = x;
    dependent.at(r, 1) = std::sin(3.f * x);
    independent.at(r, 0) = x;
    independent.at(r, 1) = static_cast<float>(base_rng.Normal(0.0, 1.0));
  }
  const double exact_dep = ExactPairwiseHsic(dependent);
  const double exact_indep = ExactPairwiseHsic(independent);
  EXPECT_GT(exact_dep, exact_indep);

  Rng map_rng(16);
  RffConfig config;
  config.num_functions = 4;
  RffFeatureMap rff(2, config, &map_rng);
  const double rff_dep = test::DependenceMeasure(dependent, rff);
  const double rff_indep = test::DependenceMeasure(independent, rff);
  EXPECT_GT(rff_dep, rff_indep);
}

TEST(HsicTest, ExactPairwiseSumsPairs) {
  // For d=2 the pairwise sum is a single HSIC value.
  Tensor z(50, 2);
  Rng rng(17);
  for (int i = 0; i < z.size(); ++i) {
    z[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  Tensor c0(50, 1);
  Tensor c1(50, 1);
  for (int r = 0; r < 50; ++r) {
    c0.at(r, 0) = z.at(r, 0);
    c1.at(r, 0) = z.at(r, 1);
  }
  EXPECT_NEAR(ExactPairwiseHsic(z, 1.0), ExactHsic(c0, c1, 1.0), 1e-12);
}

}  // namespace
}  // namespace oodgnn
