#ifndef OODGNN_GNN_READOUT_H_
#define OODGNN_GNN_READOUT_H_

#include "src/graph/batch.h"
#include "src/tensor/variable.h"

namespace oodgnn {

/// How node embeddings are summarized into a graph embedding.
enum class ReadoutKind { kSum, kMean, kMax };

/// Pools node embeddings h [num_nodes, d] into graph embeddings
/// [num_graphs, d] through the batch's node plan.
Variable Readout(const Variable& h, const GraphBatch& batch,
                 ReadoutKind kind);

}  // namespace oodgnn

#endif  // OODGNN_GNN_READOUT_H_
