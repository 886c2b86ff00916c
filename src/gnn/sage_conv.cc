#include "src/gnn/sage_conv.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

SageConv::SageConv(int in_dim, int out_dim, Rng* rng)
    : self_(std::make_unique<Linear>(in_dim, out_dim, rng)),
      neighbor_(
          std::make_unique<Linear>(in_dim, out_dim, rng, /*bias=*/false)) {
  RegisterModule(self_.get());
  RegisterModule(neighbor_.get());
}

Variable SageConv::Forward(const Variable& h, const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  Variable out = self_->Forward(h);
  if (batch.edge_src().empty()) return out;
  // Fused neighbor sum, scaled by 1/in-degree (the same arithmetic as
  // SegmentMean's count reciprocal).
  std::vector<float> inv_count(static_cast<size_t>(batch.num_nodes()));
  for (int v = 0; v < batch.num_nodes(); ++v) {
    const int count = batch.in_degree()[static_cast<size_t>(v)];
    inv_count[static_cast<size_t>(v)] =
        count > 0 ? 1.f / static_cast<float>(count) : 0.f;
  }
  Variable mean_neighbors =
      MulColVec(GatherScatter(h, batch.plan()),
                Variable::Constant(Tensor::ColVector(inv_count)));
  return Add(out, neighbor_->Forward(mean_neighbors));
}

}  // namespace oodgnn
