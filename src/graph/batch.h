#ifndef OODGNN_GRAPH_BATCH_H_
#define OODGNN_GRAPH_BATCH_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/segment_plan.h"
#include "src/tensor/tensor.h"

namespace oodgnn {

/// Disjoint union of several graphs, with node indices offset so a
/// single message-passing pass processes the whole mini-batch (the
/// PyTorch-Geometric batching convention).
///
/// The topology — edge lists, node→graph map, in-degrees, the
/// message-passing plans and the GCN coefficients (DESIGN.md §12) — is
/// built once, by FromTopology, and is read-only afterwards, so every
/// batch carries plans that match its edges. A default-constructed
/// batch is the empty batch (no graphs, no nodes, no edges).
class GraphBatch {
 public:
  GraphBatch();

  /// Builds the topology of `node_graph.size()` nodes, where
  /// node_graph[v] ∈ [0, num_graphs) is the graph of node v and edge e
  /// runs edge_src[e] → edge_dst[e]. The vectors move into the plans.
  /// Features, labels and targets are left empty for the caller to set.
  static GraphBatch FromTopology(int num_graphs, std::vector<int> node_graph,
                                 std::vector<int> edge_src,
                                 std::vector<int> edge_dst);

  /// Builds a batch from graph pointers. All graphs must share the same
  /// feature width and target arity.
  static GraphBatch FromGraphs(const std::vector<const Graph*>& graphs);

  int num_graphs() const { return node_plan_->num_segments; }
  int num_nodes() const { return node_plan_->num_items(); }

  /// Global (offset) directed edge endpoints.
  const std::vector<int>& edge_src() const { return plan_->src(); }
  const std::vector<int>& edge_dst() const { return plan_->dst(); }

  /// node_graph()[v] = index of the graph node v belongs to.
  const std::vector<int>& node_graph() const { return node_plan_->items; }

  /// In-degree per node (incoming directed edges).
  const std::vector<int>& in_degree() const { return in_degree_; }

  /// CSR twin plans over edge_src/edge_dst. Shared because autograd
  /// closures capture them and the tape can outlive the batch (pooled
  /// topologies).
  const MessagePlanPtr& plan() const { return plan_; }

  /// Plans over the self-loop-augmented edge list (edges in original
  /// order, then one self-loop per node) — the topology GatConv
  /// attends over.
  const MessagePlanPtr& self_loop_plan() const { return self_loop_plan_; }

  /// Plan over node_graph (segments = graphs) for readout and
  /// virtual-node pooling.
  const SegmentPlanPtr& node_plan() const { return node_plan_; }

  /// GcnConv normalization coefficients: self path 1/(d_v+1) as
  /// [num_nodes, 1], edge path 1/√(d_src+1)·√(d_dst+1) as
  /// [num_edges, 1].
  const Tensor& gcn_self_coeff() const { return gcn_self_coeff_; }
  const Tensor& gcn_edge_coeff() const { return gcn_edge_coeff_; }

  /// Stacked node features, [num_nodes, F].
  Tensor features;

  /// Class labels, one per graph (multi-class tasks; −1 if unused).
  std::vector<int> class_labels;

  /// Stacked multi-task targets and presence masks, [num_graphs, T].
  /// Empty tensors when the task has no vector targets.
  Tensor targets;
  Tensor target_mask;

 private:
  GraphBatch(int num_graphs, std::vector<int> node_graph,
             std::vector<int> edge_src, std::vector<int> edge_dst);

  MessagePlanPtr plan_;
  MessagePlanPtr self_loop_plan_;
  SegmentPlanPtr node_plan_;
  std::vector<int> in_degree_;
  Tensor gcn_self_coeff_;
  Tensor gcn_edge_coeff_;
};

/// Convenience: batches `dataset_graphs[indices[i]]` for i in
/// [begin, end).
GraphBatch MakeBatch(const std::vector<Graph>& dataset_graphs,
                     const std::vector<size_t>& indices, size_t begin,
                     size_t end);

}  // namespace oodgnn

#endif  // OODGNN_GRAPH_BATCH_H_
