#ifndef OODGNN_GNN_POOL_COMMON_H_
#define OODGNN_GNN_POOL_COMMON_H_

#include <vector>

#include "src/graph/batch.h"
#include "src/tensor/tensor.h"

namespace oodgnn {

/// Per-graph top-k node selection: for every graph keeps the
/// ceil(ratio·n_g) nodes with the highest scores (at least one per
/// graph). Returns the kept global node ids in ascending order.
/// `scores` must be [num_nodes, 1].
std::vector<int> SelectTopKNodes(const Tensor& scores,
                                 const GraphBatch& batch, float ratio);

/// Builds the topology of the subgraph induced by `kept` (ascending
/// global node ids): edges with both endpoints kept are re-indexed, the
/// node→graph map is carried over, and the plans are rebuilt. The
/// returned batch has empty `features` (callers carry node embeddings
/// separately as Variables).
GraphBatch InduceSubgraph(const GraphBatch& batch,
                          const std::vector<int>& kept);

}  // namespace oodgnn

#endif  // OODGNN_GNN_POOL_COMMON_H_
