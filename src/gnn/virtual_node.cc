#include "src/gnn/virtual_node.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

VirtualNode::VirtualNode(int dim, Rng* rng) : dim_(dim) {
  update_mlp_ = std::make_unique<Mlp>(std::vector<int>{dim, dim, dim}, rng,
                                      /*batch_norm=*/true);
  RegisterModule(update_mlp_.get());
}

Variable VirtualNode::InitialState(int num_graphs) const {
  return Variable::Constant(Tensor(num_graphs, dim_));
}

Variable VirtualNode::Distribute(const Variable& h, const Variable& vn,
                                 const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.cols(), dim_);
  OODGNN_CHECK_EQ(vn.rows(), batch.num_graphs());
  return Add(h, RowGather(vn, batch.node_plan()));
}

Variable VirtualNode::Update(const Variable& vn, const Variable& h,
                             const GraphBatch& batch, bool training) {
  Variable pooled = SegmentSum(h, batch.node_plan());
  return update_mlp_->Forward(Add(vn, pooled), training);
}

}  // namespace oodgnn
