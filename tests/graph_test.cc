#include "src/graph/graph.h"

#include "gtest/gtest.h"
#include "src/graph/batch.h"
#include "src/graph/dataset.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

Graph TriangleGraph() {
  Graph g(3, 1);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 0);
  return g;
}

TEST(GraphTest, EdgeBookkeeping) {
  Graph g(4, 2);
  g.AddEdge(0, 1);
  g.AddUndirectedEdge(2, 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(3, 2));
}

TEST(GraphTest, InDegrees) {
  Graph g(3, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  std::vector<int> deg = g.InDegrees();
  EXPECT_EQ(deg[0], 1);
  EXPECT_EQ(deg[1], 0);
  EXPECT_EQ(deg[2], 2);
}

TEST(TriangleCountTest, KnownGraphs) {
  EXPECT_EQ(CountTriangles(TriangleGraph()), 1);

  // K4 has 4 triangles.
  Graph k4(4, 1);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) k4.AddUndirectedEdge(a, b);
  }
  EXPECT_EQ(CountTriangles(k4), 4);

  // A 4-cycle has none.
  Graph c4(4, 1);
  for (int i = 0; i < 4; ++i) c4.AddUndirectedEdge(i, (i + 1) % 4);
  EXPECT_EQ(CountTriangles(c4), 0);

  // Self loops and duplicate edges are ignored.
  Graph dup = TriangleGraph();
  dup.AddUndirectedEdge(0, 1);
  dup.AddEdge(2, 2);
  EXPECT_EQ(CountTriangles(dup), 1);
}

/// Brute-force O(n³) reference counter.
int64_t BruteForceTriangles(const Graph& g) {
  auto connected = [&](int a, int b) {
    return g.HasEdge(a, b) || g.HasEdge(b, a);
  };
  int64_t count = 0;
  for (int a = 0; a < g.num_nodes(); ++a) {
    for (int b = a + 1; b < g.num_nodes(); ++b) {
      for (int c = b + 1; c < g.num_nodes(); ++c) {
        if (connected(a, b) && connected(b, c) && connected(a, c)) ++count;
      }
    }
  }
  return count;
}

class TriangleCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(TriangleCountProperty, MatchesBruteForceOnRandomGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.UniformInt(4, 14));
  Graph g(n, 1);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.35)) g.AddUndirectedEdge(a, b);
    }
  }
  EXPECT_EQ(CountTriangles(g), BruteForceTriangles(g));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TriangleCountProperty,
                         ::testing::Range(0, 12));

TEST(ComponentsTest, CountsComponents) {
  Graph g(5, 1);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(3, 4);
  EXPECT_EQ(test::NumConnectedComponents(g), 3);  // {0,1}, {2}, {3,4}.
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  EXPECT_EQ(test::NumConnectedComponents(g), 1);
}

TEST(BatchTest, OffsetsNodesAndEdges) {
  Graph a(2, 3);
  a.AddEdge(0, 1);
  a.x.at(1, 2) = 7.f;
  a.label = 1;
  Graph b(3, 3);
  b.AddEdge(2, 0);
  b.label = 0;

  GraphBatch batch = GraphBatch::FromGraphs({&a, &b});
  EXPECT_EQ(batch.num_graphs(), 2);
  EXPECT_EQ(batch.num_nodes(), 5);
  ASSERT_EQ(batch.edge_src().size(), 2u);
  EXPECT_EQ(batch.edge_src()[0], 0);
  EXPECT_EQ(batch.edge_dst()[0], 1);
  EXPECT_EQ(batch.edge_src()[1], 4);  // 2 + offset 2.
  EXPECT_EQ(batch.edge_dst()[1], 2);  // 0 + offset 2.
  EXPECT_FLOAT_EQ(batch.features.at(1, 2), 7.f);
  EXPECT_EQ(batch.node_graph()[0], 0);
  EXPECT_EQ(batch.node_graph()[2], 1);
  EXPECT_EQ(batch.class_labels[0], 1);
  EXPECT_EQ(batch.class_labels[1], 0);
}

TEST(BatchTest, InDegreesComputed) {
  Graph a(2, 1);
  a.AddUndirectedEdge(0, 1);
  GraphBatch batch = GraphBatch::FromGraphs({&a, &a});
  EXPECT_EQ(batch.in_degree(), (std::vector<int>{1, 1, 1, 1}));
}

TEST(BatchTest, TargetsAndMasksStacked) {
  Graph a(1, 1);
  a.targets = {1.f, 0.f};
  a.target_mask = {1.f, 0.f};
  Graph b(1, 1);
  b.targets = {0.f, 1.f};  // No explicit mask -> all present.

  GraphBatch batch = GraphBatch::FromGraphs({&a, &b});
  EXPECT_FLOAT_EQ(batch.targets.at(0, 0), 1.f);
  EXPECT_FLOAT_EQ(batch.target_mask.at(0, 1), 0.f);
  EXPECT_FLOAT_EQ(batch.target_mask.at(1, 0), 1.f);
  EXPECT_FLOAT_EQ(batch.target_mask.at(1, 1), 1.f);
}

TEST(BatchTest, MakeBatchSelectsRange) {
  std::vector<Graph> graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g(i + 1, 1);
    g.label = i;
    graphs.push_back(std::move(g));
  }
  std::vector<size_t> order = {3, 1, 0, 2};
  GraphBatch batch = MakeBatch(graphs, order, 1, 3);
  EXPECT_EQ(batch.num_graphs(), 2);
  EXPECT_EQ(batch.class_labels[0], 1);
  EXPECT_EQ(batch.class_labels[1], 0);
  EXPECT_EQ(batch.num_nodes(), 3);  // Sizes 2 + 1.
}

TEST(DatasetTest, ValidatePassesOnConsistentData) {
  GraphDataset dataset;
  dataset.name = "toy";
  dataset.num_tasks = 2;
  dataset.feature_dim = 1;
  Graph g(2, 1);
  g.label = 1;
  dataset.graphs.push_back(g);
  dataset.graphs.push_back(g);
  dataset.train_idx = {0};
  dataset.test_idx = {1};
  dataset.Validate();  // Must not abort.
}

TEST(DatasetTest, AverageStats) {
  GraphDataset dataset;
  Graph a(2, 1);
  a.AddUndirectedEdge(0, 1);
  Graph b(4, 1);
  dataset.graphs.push_back(a);
  dataset.graphs.push_back(b);
  EXPECT_DOUBLE_EQ(dataset.AverageNodes(), 3.0);
  EXPECT_DOUBLE_EQ(dataset.AverageEdges(), 0.5);  // 1 undirected / 2.
}

TEST(DatasetDeathTest, ValidateCatchesOverlappingSplits) {
  GraphDataset dataset;
  dataset.num_tasks = 1;
  dataset.feature_dim = 1;
  Graph g(1, 1);
  g.label = 0;
  dataset.graphs.push_back(g);
  dataset.train_idx = {0};
  dataset.test_idx = {0};
  EXPECT_DEATH(dataset.Validate(), "multiple splits");
}

TEST(DatasetDeathTest, ValidateCatchesBadLabel) {
  GraphDataset dataset;
  dataset.num_tasks = 2;
  dataset.feature_dim = 1;
  Graph g(1, 1);
  g.label = 5;
  dataset.graphs.push_back(g);
  EXPECT_DEATH(dataset.Validate(), "label");
}

}  // namespace
}  // namespace oodgnn
