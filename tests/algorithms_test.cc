#include "src/graph/algorithms.h"

#include "gtest/gtest.h"

namespace oodgnn {
namespace {

Graph Cycle(int n) {
  Graph g(n, 1);
  for (int v = 0; v < n; ++v) g.AddUndirectedEdge(v, (v + 1) % n);
  return g;
}

Graph Path(int n) {
  Graph g(n, 1);
  for (int v = 0; v + 1 < n; ++v) g.AddUndirectedEdge(v, v + 1);
  return g;
}

Graph Complete(int n) {
  Graph g(n, 1);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) g.AddUndirectedEdge(a, b);
  }
  return g;
}

TEST(ClusteringTest, ExtremesAndMidpoint) {
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(Complete(4)), 1.0);
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(Path(5)), 0.0);
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(Cycle(5)), 0.0);
  // Triangle with one pendant node: 3 triangles-in-triples out of:
  // deg = {3,2,2,1} -> triples = 3+1+1+0 = 5 -> 3·1/5.
  Graph g = Complete(3);
  Graph with_pendant(4, 1);
  with_pendant.AddUndirectedEdge(0, 1);
  with_pendant.AddUndirectedEdge(1, 2);
  with_pendant.AddUndirectedEdge(2, 0);
  with_pendant.AddUndirectedEdge(0, 3);
  EXPECT_DOUBLE_EQ(ClusteringCoefficient(with_pendant), 3.0 / 5.0);
}

}  // namespace
}  // namespace oodgnn
