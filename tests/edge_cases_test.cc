// Failure-injection and boundary-condition tests across modules:
// degenerate graphs, extreme values, contract violations that must
// abort cleanly, and numerical corner cases.

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/rff.h"
#include "src/core/weight_optimizer.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "src/train/metrics.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

// ---------------------------------------------------------------------------
// Degenerate graphs through the whole model stack.
// ---------------------------------------------------------------------------

TEST(EdgeCaseTest, SingleNodeGraphEncodes) {
  Rng rng(1);
  EncoderConfig config;
  config.feature_dim = 3;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.dropout = 0.f;
  // One node, and the degenerate graph with none (the GCN coefficients
  // of a node-less batch are still a [0, 1] column).
  for (int num_nodes : {1, 0}) {
    for (Method method : AllMethods()) {
      GraphPredictionModel model(method, config, 2, &rng);
      Graph g(num_nodes, 3);
      if (num_nodes > 0) g.x.at(0, 0) = 1.f;
      g.label = 0;
      GraphBatch batch = GraphBatch::FromGraphs({&g});
      Rng fwd(2);
      Variable logits = model.Predict(batch, /*training=*/false, &fwd);
      ASSERT_EQ(logits.rows(), 1);
      for (int i = 0; i < logits.value().size(); ++i) {
        EXPECT_TRUE(std::isfinite(logits.value()[i]))
            << MethodName(method) << " with " << num_nodes << " nodes";
      }
    }
  }
}

TEST(EdgeCaseTest, SelfLoopGraphEncodes) {
  Rng rng(3);
  EncoderConfig config;
  config.feature_dim = 2;
  config.hidden_dim = 4;
  config.num_layers = 2;
  GraphPredictionModel model(Method::kGin, config, 2, &rng);
  Graph g(2, 2);
  g.AddEdge(0, 0);  // Self loop.
  g.AddUndirectedEdge(0, 1);
  g.label = 1;
  GraphBatch batch = GraphBatch::FromGraphs({&g});
  Rng fwd(4);
  Variable logits = model.Predict(batch, false, &fwd);
  EXPECT_TRUE(std::isfinite(test::MaxAbs(logits.value())));
}

TEST(EdgeCaseTest, MultiEdgesAreSummedNotDeduplicated) {
  // GIN aggregation counts parallel edges — multiset semantics.
  Rng rng(5);
  EncoderConfig config;
  config.feature_dim = 2;
  config.hidden_dim = 4;
  config.num_layers = 1;
  config.dropout = 0.f;
  GraphPredictionModel model(Method::kGin, config, 2, &rng);
  Graph once(2, 2);
  once.x.at(1, 0) = 1.f;
  once.AddEdge(1, 0);
  once.label = 0;
  Graph twice = once;
  twice.AddEdge(1, 0);
  GraphBatch a = GraphBatch::FromGraphs({&once});
  GraphBatch b = GraphBatch::FromGraphs({&twice});
  Rng f1(6);
  Rng f2(6);
  Tensor za = model.Encode(a, false, &f1).value();
  Tensor zb = model.Encode(b, false, &f2).value();
  EXPECT_FALSE(AllClose(za, zb));
}

// ---------------------------------------------------------------------------
// Contract violations must abort with a diagnostic, not corrupt memory.
// ---------------------------------------------------------------------------

TEST(ContractDeathTest, MatMulShapeMismatch) {
  Variable a = Variable::Constant(Tensor(2, 3));
  Variable b = Variable::Constant(Tensor(2, 3));
  EXPECT_DEATH(MatMul(a, b), "MatMul shape mismatch");
}

TEST(ContractDeathTest, BackwardOnNonScalar) {
  Variable a = Variable::Param(Tensor(2, 2));
  EXPECT_DEATH(a.Backward(), "scalar");
}

TEST(ContractDeathTest, GraphEdgeOutOfRange) {
  Graph g(2, 1);
  EXPECT_DEATH(g.AddEdge(0, 5), "bad edge");
}

TEST(ContractDeathTest, LossLabelSizeMismatch) {
  Variable logits = Variable::Constant(Tensor(2, 3));
  EXPECT_DEATH(SoftmaxCrossEntropy(logits, {0}), "CHECK failed");
}

TEST(ContractDeathTest, BceWithEmptyMask) {
  Variable logits = Variable::Constant(Tensor(1, 2));
  Tensor targets(1, 2);
  Tensor mask(1, 2);  // All labels masked out.
  EXPECT_DEATH(BceWithLogits(logits, targets, mask), "no labels");
}

// ---------------------------------------------------------------------------
// Numerical corner cases.
// ---------------------------------------------------------------------------

TEST(EdgeCaseTest, SoftmaxCrossEntropyWithHugeLogits) {
  Variable logits =
      Variable::Param(Tensor::FromData(1, 3, {1000.f, -1000.f, 0.f}));
  Variable loss = SoftmaxCrossEntropy(logits, {0});
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  EXPECT_NEAR(loss.value()[0], 0.f, 1e-4);
  loss.Backward();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(logits.grad()[i]));
  }
}

TEST(EdgeCaseTest, WeightOptimizerOnConstantRepresentations) {
  // All-identical representations: zero dependence, nothing to move.
  Rng rng(7);
  RffConfig config;
  RffFeatureMap rff(4, config, &rng);
  Tensor z(16, 4, 0.5f);
  WeightOptimizerConfig weight_config;
  weight_config.epochs_reweight = 5;
  GraphWeightOptimizer optimizer(weight_config);
  WeightOptimizerResult result = optimizer.Optimize(z, rff, nullptr);
  for (float w : result.weights) {
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GE(w, 0.f);
  }
  EXPECT_NEAR(result.final_loss, 0.0, 1e-6);
}

TEST(EdgeCaseTest, RocAucWithAllTiedScores) {
  EXPECT_DOUBLE_EQ(BinaryRocAuc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(EdgeCaseTest, AccuracyWithSingleRow) {
  Tensor logits = Tensor::FromData(1, 2, {0.2f, 0.7f});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {1}), 1.0);
}

TEST(EdgeCaseTest, RffWithSingleDimension) {
  Rng rng(8);
  RffConfig config;
  config.num_functions = 3;
  RffFeatureMap rff(1, config, &rng);
  EXPECT_EQ(rff.num_features(), 3);
  Tensor z(10, 1, 0.3f);
  Tensor f = rff.Transform(z);
  EXPECT_EQ(f.cols(), 3);
}

TEST(EdgeCaseTest, DropoutFullGraphStillFlowsGradient) {
  // Even with aggressive dropout the graph stays differentiable.
  Rng rng(9);
  Variable x = Variable::Param(Tensor(4, 4, 1.f));
  Variable out = Dropout(x, 0.9f, &rng, /*training=*/true);
  Sum(Square(out)).Backward();
  for (int i = 0; i < x.grad().size(); ++i) {
    EXPECT_TRUE(std::isfinite(x.grad()[i]));
  }
}

TEST(EdgeCaseTest, BatchOfManyIdenticalGraphs) {
  Graph g(3, 2);
  g.AddUndirectedEdge(0, 1);
  g.label = 1;
  std::vector<const Graph*> graphs(50, &g);
  GraphBatch batch = GraphBatch::FromGraphs(graphs);
  EXPECT_EQ(batch.num_graphs(), 50);
  EXPECT_EQ(batch.num_nodes(), 150);
  EXPECT_EQ(batch.edge_src().size(), 100u);
  // Last graph's edges offset correctly.
  EXPECT_EQ(batch.edge_src().back(), 148);
}

}  // namespace
}  // namespace oodgnn
