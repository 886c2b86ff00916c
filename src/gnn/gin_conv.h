#ifndef OODGNN_GNN_GIN_CONV_H_
#define OODGNN_GNN_GIN_CONV_H_

#include <memory>

#include "src/graph/batch.h"
#include "src/nn/mlp.h"
#include "src/nn/module.h"

namespace oodgnn {

class Rng;

/// Graph Isomorphism Network convolution (Xu et al., ICLR 2019):
///   h'_v = MLP((1+ε)·h_v + Σ_{u∈N(v)} h_u)
/// with a learnable ε and a 2-layer MLP with batch norm.
class GinConv : public Module {
 public:
  GinConv(int in_dim, int out_dim, Rng* rng);

  /// h: [num_nodes, in_dim] -> [num_nodes, out_dim], then `norm` (when
  /// not null) and ReLU (when `relu`), which the MLP's last Linear
  /// takes as its trailing ops (Mlp::Forward).
  Variable Forward(const Variable& h, const GraphBatch& batch, bool training,
                   BatchNorm1d* norm = nullptr, bool relu = false);

  int out_dim() const { return mlp_->out_features(); }

 private:
  Variable eps_;  // 1×1 learnable ε, zero-initialized.
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace oodgnn

#endif  // OODGNN_GNN_GIN_CONV_H_
