#include "src/gnn/gin_conv.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

GinConv::GinConv(int in_dim, int out_dim, Rng* rng) {
  eps_ = RegisterParameter(Tensor(1, 1));
  mlp_ = std::make_unique<Mlp>(std::vector<int>{in_dim, out_dim, out_dim},
                               rng, /*batch_norm=*/true);
  RegisterModule(mlp_.get());
}

Variable GinConv::Forward(const Variable& h, const GraphBatch& batch,
                          bool training, BatchNorm1d* norm, bool relu) {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  Variable aggregated =
      batch.edge_src().empty()
          ? Variable::Constant(Tensor(batch.num_nodes(), h.cols()))
          : GatherScatter(h, batch.plan());
  Variable self_term = MulByScalarVar(h, AddScalar(eps_, 1.f));
  return mlp_->Forward(Add(self_term, aggregated), training, norm, relu);
}

}  // namespace oodgnn
