#include "src/gnn/readout.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

Variable Readout(const Variable& h, const GraphBatch& batch,
                 ReadoutKind kind) {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  switch (kind) {
    case ReadoutKind::kSum:
      return SegmentSum(h, batch.node_plan());
    case ReadoutKind::kMean:
      return SegmentMean(h, batch.node_plan());
    case ReadoutKind::kMax:
      return SegmentMax(h, batch.node_plan());
  }
  OODGNN_CHECK(false) << "unknown readout";
  return Variable();
}

}  // namespace oodgnn
