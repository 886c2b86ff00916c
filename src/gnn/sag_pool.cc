#include "src/gnn/sag_pool.h"

#include <memory>

#include "src/gnn/pool_common.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_plan.h"
#include "src/util/check.h"

namespace oodgnn {

SagPool::SagPool(int dim, float ratio, Rng* rng)
    : ratio_(ratio),
      score_conv_(std::make_unique<GcnConv>(dim, 1, rng)) {
  OODGNN_CHECK(ratio > 0.f && ratio <= 1.f);
  RegisterModule(score_conv_.get());
}

PoolResult SagPool::Forward(const Variable& h,
                            const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  Variable scores = score_conv_->Forward(h, batch);

  PoolResult result;
  result.kept = SelectTopKNodes(scores.value(), batch, ratio_);
  result.topology = InduceSubgraph(batch, result.kept);
  // One plan over the kept indices serves both gathers (their backward
  // scatters parallelize over the surviving nodes).
  SegmentPlanPtr kept_plan = std::make_shared<const SegmentPlan>(
      SegmentPlan::Build(result.kept, batch.num_nodes()));
  Variable gate = TanhOp(RowGather(scores, kept_plan));
  result.h = MulColVec(RowGather(h, kept_plan), gate);
  return result;
}

}  // namespace oodgnn
