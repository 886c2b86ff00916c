#ifndef OODGNN_DATA_SPLITS_H_
#define OODGNN_DATA_SPLITS_H_

#include "src/graph/dataset.h"

namespace oodgnn {

/// OGB-style scaffold split: graphs are grouped by Graph::scaffold_id,
/// groups are sorted by size (largest first), and whole groups are
/// assigned greedily to train until `train_fraction` of the graphs is
/// reached, then to validation until `valid_fraction` more, and the
/// remaining (rarest-scaffold) groups to test. This places structurally
/// novel molecules in the test set, as in the paper.
void ScaffoldSplit(GraphDataset* dataset, double train_fraction,
                   double valid_fraction);

}  // namespace oodgnn

#endif  // OODGNN_DATA_SPLITS_H_
