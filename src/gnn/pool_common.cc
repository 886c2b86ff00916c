#include "src/gnn/pool_common.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace oodgnn {

std::vector<int> SelectTopKNodes(const Tensor& scores,
                                 const GraphBatch& batch, float ratio) {
  OODGNN_CHECK_EQ(scores.rows(), batch.num_nodes());
  OODGNN_CHECK_EQ(scores.cols(), 1);
  OODGNN_CHECK(ratio > 0.f && ratio <= 1.f);

  // Bucket nodes per graph.
  std::vector<std::vector<int>> nodes_of(
      static_cast<size_t>(batch.num_graphs()));
  for (int v = 0; v < batch.num_nodes(); ++v) {
    nodes_of[static_cast<size_t>(batch.node_graph()[static_cast<size_t>(v)])]
        .push_back(v);
  }

  std::vector<int> kept;
  kept.reserve(static_cast<size_t>(batch.num_nodes()));
  for (auto& nodes : nodes_of) {
    if (nodes.empty()) continue;
    const int k = std::max<int>(
        1, static_cast<int>(
               std::ceil(ratio * static_cast<float>(nodes.size()))));
    std::partial_sort(nodes.begin(),
                      nodes.begin() + std::min<size_t>(nodes.size(),
                                                       static_cast<size_t>(k)),
                      nodes.end(), [&](int a, int b) {
                        return scores.at(a, 0) > scores.at(b, 0);
                      });
    nodes.resize(std::min<size_t>(nodes.size(), static_cast<size_t>(k)));
    kept.insert(kept.end(), nodes.begin(), nodes.end());
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

GraphBatch InduceSubgraph(const GraphBatch& batch,
                          const std::vector<int>& kept) {
  std::vector<int> new_id(static_cast<size_t>(batch.num_nodes()), -1);
  std::vector<int> node_graph(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    OODGNN_DCHECK(kept[i] >= 0 && kept[i] < batch.num_nodes());
    new_id[static_cast<size_t>(kept[i])] = static_cast<int>(i);
    node_graph[i] = batch.node_graph()[static_cast<size_t>(kept[i])];
  }

  std::vector<int> edge_src;
  std::vector<int> edge_dst;
  for (size_t e = 0; e < batch.edge_src().size(); ++e) {
    const int u = new_id[static_cast<size_t>(batch.edge_src()[e])];
    const int v = new_id[static_cast<size_t>(batch.edge_dst()[e])];
    if (u >= 0 && v >= 0) {
      edge_src.push_back(u);
      edge_dst.push_back(v);
    }
  }

  // The derived batch gets its own plans: the parent's index the
  // pre-pool node set.
  GraphBatch out = GraphBatch::FromTopology(
      batch.num_graphs(), std::move(node_graph), std::move(edge_src),
      std::move(edge_dst));
  out.class_labels = batch.class_labels;
  out.targets = batch.targets;
  out.target_mask = batch.target_mask;
  return out;
}

}  // namespace oodgnn
