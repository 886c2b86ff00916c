#include "src/gnn/encoder.h"

#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace oodgnn {

MessagePassingEncoder::MessagePassingEncoder(ConvKind kind,
                                             const EncoderConfig& config,
                                             Rng* rng)
    : kind_(kind), config_(config) {
  OODGNN_CHECK_GT(config.feature_dim, 0);
  OODGNN_CHECK_GT(config.num_layers, 0);
  embed_ = std::make_unique<Linear>(config.feature_dim, config.hidden_dim,
                                    rng);
  RegisterModule(embed_.get());
  for (int l = 0; l < config.num_layers; ++l) {
    switch (kind) {
      case ConvKind::kGin:
        gin_layers_.push_back(std::make_unique<GinConv>(
            config.hidden_dim, config.hidden_dim, rng));
        RegisterModule(gin_layers_.back().get());
        break;
      case ConvKind::kGcn:
        gcn_layers_.push_back(std::make_unique<GcnConv>(
            config.hidden_dim, config.hidden_dim, rng));
        RegisterModule(gcn_layers_.back().get());
        break;
      case ConvKind::kPna:
        pna_layers_.push_back(std::make_unique<PnaConv>(
            config.hidden_dim, config.hidden_dim, config.pna_delta, rng));
        RegisterModule(pna_layers_.back().get());
        break;
      case ConvKind::kGat:
        gat_layers_.push_back(std::make_unique<GatConv>(
            config.hidden_dim, config.hidden_dim, config.num_heads, rng));
        RegisterModule(gat_layers_.back().get());
        break;
      case ConvKind::kSage:
        sage_layers_.push_back(std::make_unique<SageConv>(
            config.hidden_dim, config.hidden_dim, rng));
        RegisterModule(sage_layers_.back().get());
        break;
    }
    norms_.push_back(std::make_unique<BatchNorm1d>(config.hidden_dim));
    RegisterModule(norms_.back().get());
  }
  if (config.virtual_node) {
    virtual_node_ = std::make_unique<VirtualNode>(config.hidden_dim, rng);
    RegisterModule(virtual_node_.get());
  }
}

Variable MessagePassingEncoder::ApplyConv(size_t layer, const Variable& h,
                                          const GraphBatch& batch,
                                          bool training, bool relu) {
  BatchNorm1d* norm = norms_[layer].get();
  Variable out;
  switch (kind_) {
    case ConvKind::kGin:
      // GIN ends in its MLP's Linear, which takes the norm and ReLU.
      return gin_layers_[layer]->Forward(h, batch, training, norm, relu);
    case ConvKind::kGcn:
      out = gcn_layers_[layer]->Forward(h, batch);
      break;
    case ConvKind::kPna:
      out = pna_layers_[layer]->Forward(h, batch);
      break;
    case ConvKind::kGat:
      out = gat_layers_[layer]->Forward(h, batch);
      break;
    case ConvKind::kSage:
      out = sage_layers_[layer]->Forward(h, batch);
      break;
  }
  return norm->Forward(out, training, relu);
}

Variable MessagePassingEncoder::Encode(const GraphBatch& batch, bool training,
                                       Rng* rng) {
  Variable h = embed_->Forward(Variable::Constant(batch.features));
  Variable vn;
  if (virtual_node_) vn = virtual_node_->InitialState(batch.num_graphs());

  for (size_t l = 0; l < norms_.size(); ++l) {
    if (virtual_node_) h = virtual_node_->Distribute(h, vn, batch);
    const bool last = l + 1 == norms_.size();
    h = ApplyConv(l, h, batch, training, /*relu=*/!last);
    h = Dropout(h, config_.dropout, rng, training);
    if (virtual_node_ && !last) {
      vn = virtual_node_->Update(vn, h, batch, training);
    }
  }
  return Readout(h, batch, config_.readout);
}

HierarchicalPoolEncoder::HierarchicalPoolEncoder(PoolKind kind,
                                                 const EncoderConfig& config,
                                                 Rng* rng)
    : config_(config) {
  OODGNN_CHECK_GT(config.feature_dim, 0);
  OODGNN_CHECK_GT(config.num_layers, 0);
  embed_ = std::make_unique<Linear>(config.feature_dim, config.hidden_dim,
                                    rng);
  RegisterModule(embed_.get());
  for (int l = 0; l < config.num_layers; ++l) {
    convs_.push_back(std::make_unique<GcnConv>(config.hidden_dim,
                                               config.hidden_dim, rng));
    RegisterModule(convs_.back().get());
    if (kind == PoolKind::kTopK) {
      topk_pools_.push_back(std::make_unique<TopKPool>(
          config.hidden_dim, config.pool_ratio, rng));
      RegisterModule(topk_pools_.back().get());
    } else {
      sag_pools_.push_back(std::make_unique<SagPool>(
          config.hidden_dim, config.pool_ratio, rng));
      RegisterModule(sag_pools_.back().get());
    }
  }
}

Variable HierarchicalPoolEncoder::Encode(const GraphBatch& batch,
                                         bool training, Rng* rng) {
  Variable h = embed_->Forward(Variable::Constant(batch.features));
  // Work on a value copy of the topology; pooling coarsens it per block.
  GraphBatch topology = batch;
  Variable summary;
  for (size_t l = 0; l < convs_.size(); ++l) {
    h = Relu(convs_[l]->Forward(h, topology));
    h = Dropout(h, config_.dropout, rng, training);
    PoolResult pooled = topk_pools_.empty()
                            ? sag_pools_[l]->Forward(h, topology)
                            : topk_pools_[l]->Forward(h, topology);
    h = pooled.h;
    topology = std::move(pooled.topology);
    Variable block = ConcatCols({Readout(h, topology, ReadoutKind::kMean),
                                 Readout(h, topology, ReadoutKind::kMax)});
    summary = summary.defined() ? Add(summary, block) : block;
  }
  return summary;
}

FactorGcnEncoder::FactorGcnEncoder(const EncoderConfig& config, Rng* rng)
    : config_(config) {
  OODGNN_CHECK_GT(config.feature_dim, 0);
  OODGNN_CHECK_GT(config.num_layers, 0);
  embed_ = std::make_unique<Linear>(config.feature_dim, config.hidden_dim,
                                    rng);
  RegisterModule(embed_.get());
  for (int l = 0; l < config.num_layers; ++l) {
    convs_.push_back(std::make_unique<FactorGcnConv>(
        config.hidden_dim, config.hidden_dim, config.num_factors, rng));
    RegisterModule(convs_.back().get());
  }
}

Variable FactorGcnEncoder::Encode(const GraphBatch& batch, bool training,
                                  Rng* rng) {
  Variable h = embed_->Forward(Variable::Constant(batch.features));
  for (auto& conv : convs_) {
    h = conv->Forward(h, batch);
    h = Dropout(h, config_.dropout, rng, training);
  }
  return Readout(h, batch, config_.readout);
}

}  // namespace oodgnn
