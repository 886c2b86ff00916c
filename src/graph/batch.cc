#include "src/graph/batch.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "src/util/check.h"

namespace oodgnn {

GraphBatch::GraphBatch() : GraphBatch(0, {}, {}, {}) {}

GraphBatch::GraphBatch(int num_graphs, std::vector<int> node_graph,
                       std::vector<int> edge_src, std::vector<int> edge_dst) {
  const int num_nodes = static_cast<int>(node_graph.size());
  // GatConv's topology: the edges in their original order, then one
  // self-loop per node.
  std::vector<int> loop_src(edge_src.size() + static_cast<size_t>(num_nodes));
  std::vector<int> loop_dst(loop_src.size());
  std::copy(edge_src.begin(), edge_src.end(), loop_src.begin());
  std::copy(edge_dst.begin(), edge_dst.end(), loop_dst.begin());
  std::iota(loop_src.begin() + static_cast<std::ptrdiff_t>(edge_src.size()),
            loop_src.end(), 0);
  std::iota(loop_dst.begin() + static_cast<std::ptrdiff_t>(edge_dst.size()),
            loop_dst.end(), 0);
  self_loop_plan_ = std::make_shared<const MessagePlan>(
      MessagePlan::Build(std::move(loop_src), std::move(loop_dst), num_nodes));
  plan_ = std::make_shared<const MessagePlan>(
      MessagePlan::Build(std::move(edge_src), std::move(edge_dst), num_nodes));
  node_plan_ = std::make_shared<const SegmentPlan>(
      SegmentPlan::Build(std::move(node_graph), num_graphs));
  in_degree_ = plan_->by_dst.SegmentCounts();

  // GcnConv normalization: inv-sqrt first, then products.
  std::vector<float> inv_sqrt_deg(static_cast<size_t>(num_nodes));
  std::vector<float> self_coeff(static_cast<size_t>(num_nodes));
  for (int v = 0; v < num_nodes; ++v) {
    const float s = 1.f / std::sqrt(static_cast<float>(
                              in_degree_[static_cast<size_t>(v)] + 1));
    inv_sqrt_deg[static_cast<size_t>(v)] = s;
    self_coeff[static_cast<size_t>(v)] = s * s;
  }
  const std::vector<int>& src = plan_->src();
  const std::vector<int>& dst = plan_->dst();
  std::vector<float> edge_coeff(src.size());
  for (size_t e = 0; e < src.size(); ++e) {
    edge_coeff[e] = inv_sqrt_deg[static_cast<size_t>(src[e])] *
                    inv_sqrt_deg[static_cast<size_t>(dst[e])];
  }
  gcn_self_coeff_ = Tensor::ColVector(std::move(self_coeff));
  gcn_edge_coeff_ = Tensor::ColVector(std::move(edge_coeff));
}

GraphBatch GraphBatch::FromTopology(int num_graphs,
                                    std::vector<int> node_graph,
                                    std::vector<int> edge_src,
                                    std::vector<int> edge_dst) {
  return GraphBatch(num_graphs, std::move(node_graph), std::move(edge_src),
                    std::move(edge_dst));
}

GraphBatch GraphBatch::FromGraphs(const std::vector<const Graph*>& graphs) {
  OODGNN_CHECK(!graphs.empty());
  const int num_graphs = static_cast<int>(graphs.size());
  const int feature_dim = graphs[0]->feature_dim();
  const int num_targets = static_cast<int>(graphs[0]->targets.size());
  int total_nodes = 0;
  int total_edges = 0;
  for (const Graph* g : graphs) {
    OODGNN_CHECK(g != nullptr);
    OODGNN_CHECK_EQ(g->feature_dim(), feature_dim);
    OODGNN_CHECK_EQ(static_cast<int>(g->targets.size()), num_targets);
    total_nodes += g->num_nodes();
    total_edges += g->num_edges();
  }
  Tensor features(total_nodes, feature_dim);
  std::vector<int> node_graph(static_cast<size_t>(total_nodes));
  std::vector<int> edge_src;
  std::vector<int> edge_dst;
  edge_src.reserve(static_cast<size_t>(total_edges));
  edge_dst.reserve(static_cast<size_t>(total_edges));
  std::vector<int> class_labels;
  class_labels.reserve(graphs.size());
  Tensor targets;
  Tensor target_mask;
  if (num_targets > 0) {
    targets = Tensor(num_graphs, num_targets);
    target_mask = Tensor(num_graphs, num_targets, 1.f);
  }

  int node_offset = 0;
  for (int gi = 0; gi < num_graphs; ++gi) {
    const Graph& g = *graphs[static_cast<size_t>(gi)];
    for (int v = 0; v < g.num_nodes(); ++v) {
      const float* src = g.x.row(v);
      std::copy(src, src + feature_dim, features.row(node_offset + v));
      node_graph[static_cast<size_t>(node_offset + v)] = gi;
    }
    for (int e = 0; e < g.num_edges(); ++e) {
      edge_src.push_back(g.edge_src[static_cast<size_t>(e)] + node_offset);
      edge_dst.push_back(g.edge_dst[static_cast<size_t>(e)] + node_offset);
    }
    class_labels.push_back(g.label);
    for (int t = 0; t < num_targets; ++t) {
      targets.at(gi, t) = g.targets[static_cast<size_t>(t)];
      if (!g.target_mask.empty()) {
        target_mask.at(gi, t) = g.target_mask[static_cast<size_t>(t)];
      }
    }
    node_offset += g.num_nodes();
  }

  GraphBatch batch = FromTopology(num_graphs, std::move(node_graph),
                                  std::move(edge_src), std::move(edge_dst));
  batch.features = std::move(features);
  batch.class_labels = std::move(class_labels);
  batch.targets = std::move(targets);
  batch.target_mask = std::move(target_mask);
  return batch;
}

GraphBatch MakeBatch(const std::vector<Graph>& dataset_graphs,
                     const std::vector<size_t>& indices, size_t begin,
                     size_t end) {
  OODGNN_CHECK(begin < end && end <= indices.size());
  std::vector<const Graph*> ptrs;
  ptrs.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    OODGNN_CHECK_LT(indices[i], dataset_graphs.size());
    ptrs.push_back(&dataset_graphs[indices[i]]);
  }
  return GraphBatch::FromGraphs(ptrs);
}

}  // namespace oodgnn
