#include "src/graph/algorithms.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace oodgnn {
namespace {

/// Sorted, deduplicated undirected adjacency lists (self loops
/// dropped).
std::vector<std::vector<int>> UndirectedAdjacency(const Graph& graph) {
  std::vector<std::vector<int>> adj(
      static_cast<size_t>(graph.num_nodes()));
  for (size_t e = 0; e < graph.edge_src.size(); ++e) {
    const int u = graph.edge_src[e];
    const int v = graph.edge_dst[e];
    if (u == v) continue;
    adj[static_cast<size_t>(u)].push_back(v);
    adj[static_cast<size_t>(v)].push_back(u);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

}  // namespace

double ClusteringCoefficient(const Graph& graph) {
  std::vector<std::vector<int>> adj = UndirectedAdjacency(graph);
  int64_t triples = 0;
  for (const auto& neighbors : adj) {
    const int64_t degree = static_cast<int64_t>(neighbors.size());
    triples += degree * (degree - 1) / 2;
  }
  if (triples == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(graph)) /
         static_cast<double>(triples);
}

}  // namespace oodgnn
