#include <algorithm>
#include <numeric>

#include "gtest/gtest.h"
#include "src/gnn/encoder.h"
#include "src/gnn/gat_conv.h"
#include "src/gnn/sage_conv.h"
#include "src/tensor/gradcheck.h"
#include "src/gnn/factor_gcn.h"
#include "src/gnn/gcn_conv.h"
#include "src/gnn/gin_conv.h"
#include "src/gnn/model_zoo.h"
#include "src/gnn/pna_conv.h"
#include "src/gnn/pool_common.h"
#include "src/gnn/readout.h"
#include "src/gnn/sag_pool.h"
#include "src/gnn/topk_pool.h"
#include "src/gnn/virtual_node.h"
#include "src/graph/batch.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

/// Two small graphs batched together: a triangle and a path.
GraphBatch SmallBatch(int feature_dim = 4) {
  Graph a(3, feature_dim);
  a.AddUndirectedEdge(0, 1);
  a.AddUndirectedEdge(1, 2);
  a.AddUndirectedEdge(2, 0);
  a.label = 0;
  Graph b(4, feature_dim);
  b.AddUndirectedEdge(0, 1);
  b.AddUndirectedEdge(1, 2);
  b.AddUndirectedEdge(2, 3);
  b.label = 1;
  Rng rng(42);
  for (Graph* g : {&a, &b}) {
    g->x = Tensor::RandomNormal(g->num_nodes(), feature_dim, &rng);
  }
  return GraphBatch::FromGraphs({&a, &b});
}

/// Applies a node permutation within each graph of a batch.
GraphBatch PermuteBatch(const GraphBatch& batch,
                        const std::vector<int>& perm) {
  std::vector<int> node_graph(batch.node_graph().size());
  Tensor features(batch.num_nodes(), batch.features.cols());
  for (int v = 0; v < batch.num_nodes(); ++v) {
    const size_t to = static_cast<size_t>(perm[static_cast<size_t>(v)]);
    node_graph[to] = batch.node_graph()[static_cast<size_t>(v)];
    const float* src = batch.features.row(v);
    std::copy(src, src + batch.features.cols(),
              features.row(static_cast<int>(to)));
  }
  std::vector<int> edge_src;
  std::vector<int> edge_dst;
  for (size_t e = 0; e < batch.edge_src().size(); ++e) {
    edge_src.push_back(perm[static_cast<size_t>(batch.edge_src()[e])]);
    edge_dst.push_back(perm[static_cast<size_t>(batch.edge_dst()[e])]);
  }
  GraphBatch out = GraphBatch::FromTopology(
      batch.num_graphs(), std::move(node_graph), std::move(edge_src),
      std::move(edge_dst));
  out.features = std::move(features);
  out.class_labels = batch.class_labels;
  return out;
}

TEST(GinConvTest, OutputShape) {
  Rng rng(1);
  GinConv conv(4, 8, &rng);
  GraphBatch batch = SmallBatch();
  Variable h = Variable::Constant(batch.features);
  Variable out = conv.Forward(h, batch, /*training=*/false);
  EXPECT_EQ(out.rows(), 7);
  EXPECT_EQ(out.cols(), 8);
}

TEST(GinConvTest, AggregatesNeighborSum) {
  // With ε=0 and an identity-like check: input to the MLP must be
  // h_v + Σ_{u∈N(v)} h_u. We verify via the no-edge case equalling the
  // pure self term.
  Rng rng(2);
  GinConv conv(2, 2, &rng);
  Graph g(2, 2);
  g.x.at(0, 0) = 1.f;
  g.x.at(1, 1) = 1.f;
  GraphBatch isolated = GraphBatch::FromGraphs({&g});
  Graph connected = g;
  connected.AddUndirectedEdge(0, 1);
  GraphBatch joined = GraphBatch::FromGraphs({&connected});
  Variable h0 = Variable::Constant(isolated.features);
  Variable out_isolated = conv.Forward(h0, isolated, false);
  Variable out_joined = conv.Forward(h0, joined, false);
  // Adding an edge must change the output.
  EXPECT_FALSE(AllClose(out_isolated.value(), out_joined.value()));
}

TEST(GcnConvTest, SymmetricNormalizationOnRegularGraph) {
  // On a d-regular graph every node has the same normalized
  // aggregation, so identical inputs give identical outputs.
  Rng rng(3);
  GcnConv conv(2, 3, &rng);
  Graph ring(4, 2);
  for (int i = 0; i < 4; ++i) ring.AddUndirectedEdge(i, (i + 1) % 4);
  ring.x.Fill(1.f);
  GraphBatch batch = GraphBatch::FromGraphs({&ring});
  Variable out =
      conv.Forward(Variable::Constant(batch.features), batch);
  for (int r = 1; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out.value().at(r, c), out.value().at(0, c), 1e-5);
    }
  }
}

TEST(GcnConvTest, HandlesIsolatedNodes) {
  Rng rng(4);
  GcnConv conv(2, 2, &rng);
  Graph g(3, 2);  // No edges at all.
  g.x.Fill(1.f);
  GraphBatch batch = GraphBatch::FromGraphs({&g});
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(out.rows(), 3);
  for (int i = 0; i < out.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.value()[i]));
  }
}

TEST(PnaConvTest, OutputShapeAndFiniteness) {
  Rng rng(5);
  PnaConv conv(4, 6, /*delta=*/1.1f, &rng);
  GraphBatch batch = SmallBatch();
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(out.rows(), 7);
  EXPECT_EQ(out.cols(), 6);
  for (int i = 0; i < out.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.value()[i]));
  }
}

TEST(PnaConvTest, DeltaComputation) {
  Graph g(3, 1);
  g.AddUndirectedEdge(0, 1);  // Degrees 1, 1, 0 -> log2+log2+log1 over 3.
  const float delta = ComputePnaDelta({&g});
  EXPECT_NEAR(delta, 2.f * std::log(2.f) / 3.f, 1e-5);
}

TEST(ReadoutTest, SumMeanMaxValues) {
  Tensor h = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  const GraphBatch batch =
      GraphBatch::FromTopology(/*num_graphs=*/2, {0, 0, 1}, {}, {});
  Variable hv = Variable::Constant(h);
  Tensor sum = Readout(hv, batch, ReadoutKind::kSum).value();
  EXPECT_FLOAT_EQ(sum.at(0, 0), 4.f);
  EXPECT_FLOAT_EQ(sum.at(1, 1), 6.f);
  Tensor mean = Readout(hv, batch, ReadoutKind::kMean).value();
  EXPECT_FLOAT_EQ(mean.at(0, 1), 3.f);
  Tensor max = Readout(hv, batch, ReadoutKind::kMax).value();
  EXPECT_FLOAT_EQ(max.at(0, 0), 3.f);
}

TEST(VirtualNodeTest, DistributeAddsPerGraphState) {
  Rng rng(6);
  VirtualNode vn(2, &rng);
  GraphBatch batch = SmallBatch(2);
  Variable h = Variable::Constant(batch.features);
  Variable state = Variable::Constant(
      Tensor::FromData(2, 2, {1.f, 1.f, -1.f, -1.f}));
  Variable out = vn.Distribute(h, state, batch);
  // Graph 0 nodes get +1, graph 1 nodes get −1.
  EXPECT_NEAR(out.value().at(0, 0) - h.value().at(0, 0), 1.f, 1e-6);
  EXPECT_NEAR(out.value().at(5, 0) - h.value().at(5, 0), -1.f, 1e-6);
}

TEST(PoolCommonTest, SelectTopKRespectsRatioAndGraphs) {
  GraphBatch batch = SmallBatch();
  Tensor scores(7, 1);
  for (int v = 0; v < 7; ++v) scores.at(v, 0) = static_cast<float>(v);
  std::vector<int> kept = SelectTopKNodes(scores, batch, 0.5f);
  // Graph 0 has 3 nodes -> keep 2; graph 1 has 4 -> keep 2.
  EXPECT_EQ(kept.size(), 4u);
  // Highest scores win: nodes {1,2} from graph 0, {5,6} from graph 1.
  EXPECT_EQ(kept, (std::vector<int>{1, 2, 5, 6}));
}

TEST(PoolCommonTest, AtLeastOneNodePerGraph) {
  GraphBatch batch = SmallBatch();
  Tensor scores(7, 1);
  std::vector<int> kept = SelectTopKNodes(scores, batch, 0.01f);
  EXPECT_EQ(kept.size(), 2u);  // One per graph.
}

TEST(PoolCommonTest, InduceSubgraphRemapsEdges) {
  GraphBatch batch = SmallBatch();
  // Keep nodes 0,1 (graph 0) and 3,4 (graph 1).
  GraphBatch sub = InduceSubgraph(batch, {0, 1, 3, 4});
  EXPECT_EQ(sub.num_nodes(), 4);
  // Triangle edges between 0,1 survive (both directions).
  int surviving = static_cast<int>(sub.edge_src().size());
  EXPECT_EQ(surviving, 4);  // (0,1),(1,0) from graph0; (3,4),(4,3)->(2,3),(3,2).
  for (size_t e = 0; e < sub.edge_src().size(); ++e) {
    EXPECT_LT(sub.edge_src()[e], 4);
    EXPECT_LT(sub.edge_dst()[e], 4);
  }
  EXPECT_EQ(sub.node_graph(), (std::vector<int>{0, 0, 1, 1}));
}

TEST(TopKPoolTest, GatesAndCoarsens) {
  Rng rng(7);
  TopKPool pool(4, 0.5f, &rng);
  GraphBatch batch = SmallBatch();
  PoolResult result =
      pool.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(result.h.rows(), 4);
  EXPECT_EQ(result.h.cols(), 4);
  EXPECT_EQ(result.topology.num_nodes(), 4);
  EXPECT_EQ(result.topology.num_graphs(), 2);
}

TEST(SagPoolTest, StructureAwareScores) {
  Rng rng(8);
  SagPool pool(4, 0.5f, &rng);
  GraphBatch batch = SmallBatch();
  PoolResult result =
      pool.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(result.h.rows(), 4);
  EXPECT_EQ(result.kept.size(), 4u);
}

TEST(FactorGcnTest, FactorConcatShape) {
  Rng rng(9);
  FactorGcnConv conv(4, 8, /*num_factors=*/4, &rng);
  GraphBatch batch = SmallBatch();
  Variable out = conv.Forward(Variable::Constant(batch.features), batch);
  EXPECT_EQ(out.cols(), 8);
  EXPECT_EQ(conv.last_attention().size(), 4u);
  EXPECT_EQ(conv.last_attention()[0].rows(),
            static_cast<int>(batch.edge_src().size()));
  // Attention values are probabilities.
  for (int i = 0; i < conv.last_attention()[0].size(); ++i) {
    EXPECT_GT(conv.last_attention()[0][i], 0.f);
    EXPECT_LT(conv.last_attention()[0][i], 1.f);
  }
}

// ---------------------------------------------------------------------------
// Permutation invariance: encoders must be invariant to node relabeling.
// ---------------------------------------------------------------------------

class EncoderPermutationInvariance
    : public ::testing::TestWithParam<Method> {};

TEST_P(EncoderPermutationInvariance, EncodeIsPermutationInvariant) {
  const Method method = GetParam();
  Rng rng(10);
  EncoderConfig config;
  config.feature_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.dropout = 0.f;
  GraphPredictionModel model(method, config, /*output_dim=*/3, &rng);

  GraphBatch batch = SmallBatch();
  // Permute within each graph: rotate graph 0's nodes, swap two of
  // graph 1's nodes.
  std::vector<int> perm = {1, 2, 0, 4, 3, 5, 6};
  GraphBatch permuted = PermuteBatch(batch, perm);

  Rng fwd1(1);
  Rng fwd2(1);
  Variable z1 = model.Encode(batch, /*training=*/false, &fwd1);
  Variable z2 = model.Encode(permuted, /*training=*/false, &fwd2);
  EXPECT_TRUE(AllClose(z1.value(), z2.value(), 1e-3f))
      << MethodName(method);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, EncoderPermutationInvariance,
    ::testing::Values(Method::kGcn, Method::kGcnVirtual, Method::kGin,
                      Method::kGinVirtual, Method::kFactorGcn, Method::kPna,
                      Method::kOodGnn),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

class ModelZooForward : public ::testing::TestWithParam<Method> {};

TEST_P(ModelZooForward, PredictsCorrectShapeAndBackprops) {
  Rng rng(11);
  EncoderConfig config;
  config.feature_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  GraphPredictionModel model(GetParam(), config, /*output_dim=*/5, &rng);
  GraphBatch batch = SmallBatch();
  Rng fwd(2);
  Variable logits = model.Predict(batch, /*training=*/true, &fwd);
  EXPECT_EQ(logits.rows(), 2);
  EXPECT_EQ(logits.cols(), 5);

  model.ZeroGrad();
  Sum(Square(logits)).Backward();
  // At least one parameter receives a non-zero gradient.
  float max_grad = 0.f;
  for (const Variable& p : model.Parameters()) {
    max_grad = std::max(max_grad, test::MaxAbs(p.grad()));
  }
  EXPECT_GT(max_grad, 0.f);
  EXPECT_GT(model.NumParameters(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsSuite, ModelZooForward, ::testing::ValuesIn(AllMethods()),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// ---------------------------------------------------------------------------
// Finite-difference gradient checks for every model-zoo layer. The
// leaves are the layer's parameters plus the node features, so both the
// weight gradients and the message-passing input gradients are checked.
// Layers with discrete structure (top-k selection, max readout/PNA max
// aggregation, LeakyReLU kinks) are checked on fixed random inputs
// whose margins comfortably exceed the finite-difference step, keeping
// the piecewise-linear regions stable under perturbation.
// ---------------------------------------------------------------------------

constexpr double kGradTolerance = 5e-2;

TEST(GnnGradCheckTest, GatConv) {
  Rng rng(21);
  GatConv conv(3, 4, /*num_heads=*/2, &rng);
  GraphBatch batch = SmallBatch(3);
  Variable h =
      Variable::Param(Tensor::RandomNormal(batch.num_nodes(), 3, &rng));
  std::vector<Variable> leaves = conv.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(conv.Forward(h, batch))); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, PnaConv) {
  Rng rng(22);
  PnaConv conv(3, 4, /*delta=*/1.1f, &rng);
  GraphBatch batch = SmallBatch(3);
  Variable h =
      Variable::Param(Tensor::RandomNormal(batch.num_nodes(), 3, &rng));
  std::vector<Variable> leaves = conv.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(conv.Forward(h, batch))); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, SageConv) {
  Rng rng(23);
  SageConv conv(3, 4, &rng);
  GraphBatch batch = SmallBatch(3);
  Variable h =
      Variable::Param(Tensor::RandomNormal(batch.num_nodes(), 3, &rng));
  std::vector<Variable> leaves = conv.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(conv.Forward(h, batch))); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, TopKPool) {
  Rng rng(24);
  TopKPool pool(3, 0.5f, &rng);
  GraphBatch batch = SmallBatch(3);
  // Well-separated rows keep the per-graph top-k selection stable under
  // the finite-difference perturbation (the selection itself is
  // piecewise constant; the gradient is checked within one region).
  Tensor features(batch.num_nodes(), 3);
  for (int v = 0; v < batch.num_nodes(); ++v) {
    for (int c = 0; c < 3; ++c) {
      features.at(v, c) = 0.7f * static_cast<float>(v + 1) *
                          (c % 2 == 0 ? 1.f : -1.f);
    }
  }
  Variable h = Variable::Param(features);
  std::vector<Variable> leaves = pool.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(pool.Forward(h, batch).h)); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, SagPool) {
  Rng rng(25);
  SagPool pool(3, 0.5f, &rng);
  // Two path graphs, not SmallBatch: in a triangle every node's GCN
  // neighborhood is the whole graph, so the SAG scores are exactly tied
  // and any finite-difference step flips the top-k selection. Paths
  // have distinct neighborhoods; a steep feature ramp then keeps the
  // per-graph score ordering far from any tie.
  Graph a(4, 3);
  a.AddUndirectedEdge(0, 1);
  a.AddUndirectedEdge(1, 2);
  a.AddUndirectedEdge(2, 3);
  Graph b(3, 3);
  b.AddUndirectedEdge(0, 1);
  b.AddUndirectedEdge(1, 2);
  GraphBatch batch = GraphBatch::FromGraphs({&a, &b});
  Tensor features(batch.num_nodes(), 3);
  for (int v = 0; v < batch.num_nodes(); ++v) {
    for (int c = 0; c < 3; ++c) {
      features.at(v, c) = static_cast<float>(v + 1) +
                          0.1f * static_cast<float>(c);
    }
  }
  Variable h = Variable::Param(features);
  std::vector<Variable> leaves = pool.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(pool.Forward(h, batch).h)); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, VirtualNode) {
  Rng rng(26);
  VirtualNode vn(3, &rng);
  GraphBatch batch = SmallBatch(3);
  Variable h =
      Variable::Param(Tensor::RandomNormal(batch.num_nodes(), 3, &rng));
  Variable state =
      Variable::Param(Tensor::RandomNormal(batch.num_graphs(), 3, &rng));
  std::vector<Variable> leaves = vn.Parameters();
  leaves.push_back(h);
  leaves.push_back(state);
  const GradCheckResult result = CheckGradients(leaves, [&] {
    Variable distributed = vn.Distribute(h, state, batch);
    Variable updated = vn.Update(state, distributed, batch,
                                 /*training=*/false);
    return Add(Sum(Square(distributed)), Sum(Square(updated)));
  });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

TEST(GnnGradCheckTest, FactorGcnConv) {
  Rng rng(27);
  FactorGcnConv conv(3, 4, /*num_factors=*/2, &rng);
  GraphBatch batch = SmallBatch(3);
  Variable h =
      Variable::Param(Tensor::RandomNormal(batch.num_nodes(), 3, &rng));
  std::vector<Variable> leaves = conv.Parameters();
  leaves.push_back(h);
  const GradCheckResult result = CheckGradients(
      leaves, [&] { return Sum(Square(conv.Forward(h, batch))); });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

class ReadoutGradCheck : public ::testing::TestWithParam<ReadoutKind> {};

TEST_P(ReadoutGradCheck, MatchesFiniteDifferences) {
  Rng rng(28);
  GraphBatch batch = SmallBatch(3);
  // Distinct magnitudes keep the max readout's argmax stable under the
  // finite-difference step.
  Tensor features(batch.num_nodes(), 3);
  for (int v = 0; v < batch.num_nodes(); ++v) {
    for (int c = 0; c < 3; ++c) {
      features.at(v, c) =
          0.5f * static_cast<float>(v + 1) + 0.2f * static_cast<float>(c);
    }
  }
  Variable h = Variable::Param(features);
  const GradCheckResult result = CheckGradients({h}, [&] {
    return Sum(Square(Readout(h, batch, GetParam())));
  });
  EXPECT_LT(result.max_relative_error, kGradTolerance);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReadoutGradCheck,
                         ::testing::Values(ReadoutKind::kSum,
                                           ReadoutKind::kMean,
                                           ReadoutKind::kMax),
                         [](const ::testing::TestParamInfo<ReadoutKind>& info) {
                           switch (info.param) {
                             case ReadoutKind::kSum:
                               return "Sum";
                             case ReadoutKind::kMean:
                               return "Mean";
                             case ReadoutKind::kMax:
                               return "Max";
                           }
                           return "Unknown";
                         });

TEST(ModelZooTest, OodGnnSharesGinParameterCount) {
  Rng rng(12);
  EncoderConfig config;
  config.feature_dim = 5;
  config.hidden_dim = 16;
  config.num_layers = 3;
  GraphPredictionModel gin(Method::kGin, config, 2, &rng);
  GraphPredictionModel ood(Method::kOodGnn, config, 2, &rng);
  EXPECT_EQ(gin.NumParameters(), ood.NumParameters());
}

TEST(ModelZooTest, MethodNamesMatchPaperRows) {
  EXPECT_STREQ(MethodName(Method::kGcnVirtual), "GCN-virtual");
  EXPECT_STREQ(MethodName(Method::kOodGnn), "OOD-GNN");
  EXPECT_EQ(BaselineMethods().size(), 8u);
  EXPECT_EQ(AllMethods().size(), 9u);
}

}  // namespace
}  // namespace oodgnn
