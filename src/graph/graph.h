#ifndef OODGNN_GRAPH_GRAPH_H_
#define OODGNN_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

/// A single attributed graph with graph-level labels. Passive data
/// carrier: fields are public and invariants (index ranges) are checked
/// by the functions that consume it.
///
/// Edges are directed; undirected graphs store both directions (use
/// AddUndirectedEdge). Message passing treats edge (u→v) as "u sends a
/// message to v".
struct Graph {
  Graph() = default;

  /// Creates a graph with `num_nodes` nodes and zero-initialized
  /// node features of width `feature_dim`.
  Graph(int num_nodes, int feature_dim) : x(num_nodes, feature_dim) {}

  /// Node features, [num_nodes, feature_dim].
  Tensor x;

  /// Directed edge endpoints (parallel arrays).
  std::vector<int> edge_src;
  std::vector<int> edge_dst;

  /// Class id for multi-class classification tasks (−1 if unused).
  int label = -1;

  /// Targets for multi-task binary classification (0/1 per task) or
  /// regression (real value per task). Empty if unused.
  std::vector<float> targets;

  /// 1 where the corresponding target is present, 0 where missing
  /// (OGB-style). Empty means all targets present.
  std::vector<float> target_mask;

  /// Scaffold identifier assigned by the molecule generator (−1 if not
  /// a molecule). Used by the scaffold split.
  int64_t scaffold_id = -1;

  int num_nodes() const { return x.rows(); }
  int num_edges() const { return static_cast<int>(edge_src.size()); }
  int feature_dim() const { return x.cols(); }

  /// Appends the directed edge u→v. Endpoints must be valid node ids.
  void AddEdge(int u, int v);

  /// Appends both u→v and v→u.
  void AddUndirectedEdge(int u, int v);

  /// In-degree of every node (number of incoming directed edges).
  std::vector<int> InDegrees() const;

  /// True if the directed edge u→v exists (linear scan; intended for
  /// tests and generators, not hot paths).
  bool HasEdge(int u, int v) const;
};

/// Exact triangle count (number of unordered node triples that are
/// pairwise adjacent). Treats the graph as undirected.
int64_t CountTriangles(const Graph& graph);

}  // namespace oodgnn

#endif  // OODGNN_GRAPH_GRAPH_H_
