#include "src/gnn/gcn_conv.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

GcnConv::GcnConv(int in_dim, int out_dim, Rng* rng)
    : linear_(std::make_unique<Linear>(in_dim, out_dim, rng)) {
  RegisterModule(linear_.get());
}

Variable GcnConv::Forward(const Variable& h, const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  Variable transformed = linear_->Forward(h);
  // The batch precomputes the normalization coefficients; the edge term
  // fuses gather, per-edge scaling, and the planned segment scatter.
  Variable out =
      MulColVec(transformed, Variable::Constant(batch.gcn_self_coeff()));
  if (!batch.edge_src().empty()) {
    out = Add(out, GatherScatterWeighted(
                       transformed, Variable::Constant(batch.gcn_edge_coeff()),
                       batch.plan()));
  }
  return out;
}

}  // namespace oodgnn
