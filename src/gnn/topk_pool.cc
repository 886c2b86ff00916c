#include "src/gnn/topk_pool.h"

#include <memory>

#include "src/nn/init.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_plan.h"
#include "src/util/check.h"

#include "src/gnn/pool_common.h"

namespace oodgnn {

TopKPool::TopKPool(int dim, float ratio, Rng* rng) : ratio_(ratio) {
  OODGNN_CHECK(ratio > 0.f && ratio <= 1.f);
  projection_ = RegisterParameter(GlorotUniform(dim, 1, rng));
}

PoolResult TopKPool::Forward(const Variable& h,
                             const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  // score = h·p / ||p||  (differentiable in both h and p).
  Variable norm = SqrtOp(AddScalar(Sum(Square(projection_)), 1e-12f));
  Variable scores = MulByScalarVar(MatMul(h, projection_), Reciprocal(norm));

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
