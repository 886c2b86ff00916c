#ifndef OODGNN_GRAPH_ALGORITHMS_H_
#define OODGNN_GRAPH_ALGORITHMS_H_

#include "src/graph/graph.h"

namespace oodgnn {

/// Global clustering coefficient: 3·#triangles / #connected-triples.
/// Returns 0 when there are no triples.
double ClusteringCoefficient(const Graph& graph);

}  // namespace oodgnn

#endif  // OODGNN_GRAPH_ALGORITHMS_H_
