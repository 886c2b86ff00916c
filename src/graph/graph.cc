#include "src/graph/graph.h"

#include <algorithm>

#include "src/tensor/segment_plan.h"
#include "src/util/check.h"

namespace oodgnn {

void Graph::AddEdge(int u, int v) {
  OODGNN_CHECK(u >= 0 && u < num_nodes()) << "bad edge source " << u;
  OODGNN_CHECK(v >= 0 && v < num_nodes()) << "bad edge target " << v;
  edge_src.push_back(u);
  edge_dst.push_back(v);
}

void Graph::AddUndirectedEdge(int u, int v) {
  AddEdge(u, v);
  AddEdge(v, u);
}

std::vector<int> Graph::InDegrees() const {
  return SegmentPlan::Build(edge_dst, num_nodes()).SegmentCounts();
}

bool Graph::HasEdge(int u, int v) const {
  for (size_t i = 0; i < edge_src.size(); ++i) {
    if (edge_src[i] == u && edge_dst[i] == v) return true;
  }
  return false;
}

int64_t CountTriangles(const Graph& graph) {
  const int n = graph.num_nodes();
  // Build sorted, deduplicated undirected adjacency lists.
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (size_t i = 0; i < graph.edge_src.size(); ++i) {
    int u = graph.edge_src[i];
    int v = graph.edge_dst[i];
    if (u == v) continue;
    adj[static_cast<size_t>(u)].push_back(v);
    adj[static_cast<size_t>(v)].push_back(u);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // For each node, count edges among higher-indexed neighbor pairs.
  int64_t triangles = 0;
  for (int u = 0; u < n; ++u) {
    const auto& nu = adj[static_cast<size_t>(u)];
    for (size_t a = 0; a < nu.size(); ++a) {
      const int v = nu[a];
      if (v <= u) continue;
      const auto& nv = adj[static_cast<size_t>(v)];
      for (size_t b = a + 1; b < nu.size(); ++b) {
        const int w = nu[b];
        if (w <= v) continue;
        if (std::binary_search(nv.begin(), nv.end(), w)) ++triangles;
      }
    }
  }
  return triangles;
}

}  // namespace oodgnn
