#include "src/gnn/factor_gcn.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

FactorGcnConv::FactorGcnConv(int in_dim, int out_dim, int num_factors,
                             Rng* rng) {
  OODGNN_CHECK_GT(num_factors, 0);
  OODGNN_CHECK_EQ(out_dim % num_factors, 0)
      << "out_dim must be divisible by num_factors";
  const int factor_dim = out_dim / num_factors;
  for (int f = 0; f < num_factors; ++f) {
    attention_.push_back(std::make_unique<Linear>(2 * in_dim, 1, rng));
    values_.push_back(std::make_unique<Linear>(in_dim, factor_dim, rng));
    RegisterModule(attention_.back().get());
    RegisterModule(values_.back().get());
  }
}

Variable FactorGcnConv::Forward(const Variable& h,
                                const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  last_attention_.clear();

  const bool edgeless = batch.edge_src().empty();
  Variable endpoints;
  if (!edgeless) {
    endpoints = ConcatCols({RowGather(h, BySrc(batch.plan())),
                            RowGather(h, ByDst(batch.plan()))});
  }

  std::vector<Variable> factor_outputs;
  factor_outputs.reserve(values_.size());
  for (size_t f = 0; f < values_.size(); ++f) {
    Variable transformed = values_[f]->Forward(h);
    if (edgeless) {
      factor_outputs.push_back(Relu(transformed));
      last_attention_.emplace_back();
      continue;
    }
    Variable alpha = Sigmoid(attention_[f]->Forward(endpoints));  // [E,1]
    last_attention_.push_back(alpha.value());
    Variable aggregated =
        GatherScatterWeighted(transformed, alpha, batch.plan());
    factor_outputs.push_back(Relu(Add(transformed, aggregated)));
  }
  return ConcatCols(factor_outputs);
}

}  // namespace oodgnn
