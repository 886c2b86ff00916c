#ifndef OODGNN_GNN_ENCODER_H_
#define OODGNN_GNN_ENCODER_H_

#include <memory>
#include <vector>

#include "src/gnn/factor_gcn.h"
#include "src/gnn/gat_conv.h"
#include "src/gnn/gcn_conv.h"
#include "src/gnn/gin_conv.h"
#include "src/gnn/pna_conv.h"
#include "src/gnn/readout.h"
#include "src/gnn/sage_conv.h"
#include "src/gnn/sag_pool.h"
#include "src/gnn/topk_pool.h"
#include "src/gnn/virtual_node.h"
#include "src/graph/batch.h"
#include "src/nn/batchnorm.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"

namespace oodgnn {

class Rng;

/// Maps a batch of graphs to fixed-width graph representations
/// Z ∈ R^{num_graphs × output_dim} — the Φ of the paper.
class GraphEncoder : public Module {
 public:
  ~GraphEncoder() override = default;

  virtual Variable Encode(const GraphBatch& batch, bool training,
                          Rng* rng) = 0;
  virtual int output_dim() const = 0;
};

/// Shared hyper-parameters for all encoders.
struct EncoderConfig {
  int feature_dim = 0;    ///< Input node-feature width (required).
  int hidden_dim = 64;    ///< Representation width d.
  int num_layers = 3;     ///< Message-passing depth.
  float dropout = 0.5f;   ///< Dropout after every layer.
  ReadoutKind readout = ReadoutKind::kMean;
  bool virtual_node = false;
  float pool_ratio = 0.5f;  ///< Pooling encoders: nodes kept per stage.
  int num_factors = 4;      ///< FactorGCN: latent factor graphs.
  float pna_delta = 1.f;    ///< PNA: E[log(deg+1)] over training data.
  int num_heads = 4;        ///< GAT: attention heads.
};

/// Which convolution a MessagePassingEncoder stacks.
enum class ConvKind { kGin, kGcn, kPna, kGat, kSage };

/// Flat stack of message-passing layers with batch norm, ReLU and
/// dropout between layers, optional virtual node, and a global readout.
/// Covers GIN, GCN, PNA and their -virtual variants.
class MessagePassingEncoder : public GraphEncoder {
 public:
  MessagePassingEncoder(ConvKind kind, const EncoderConfig& config, Rng* rng);

  Variable Encode(const GraphBatch& batch, bool training, Rng* rng) override;
  int output_dim() const override { return config_.hidden_dim; }

 private:
  /// Layer `layer`'s convolution, then its BatchNorm and (when `relu`)
  /// ReLU.
  Variable ApplyConv(size_t layer, const Variable& h, const GraphBatch& batch,
                     bool training, bool relu);

  ConvKind kind_;
  EncoderConfig config_;
  std::unique_ptr<Linear> embed_;
  std::vector<std::unique_ptr<GinConv>> gin_layers_;
  std::vector<std::unique_ptr<GcnConv>> gcn_layers_;
  std::vector<std::unique_ptr<PnaConv>> pna_layers_;
  std::vector<std::unique_ptr<GatConv>> gat_layers_;
  std::vector<std::unique_ptr<SageConv>> sage_layers_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;
  std::unique_ptr<VirtualNode> virtual_node_;
};

/// Which score function a HierarchicalPoolEncoder uses.
enum class PoolKind { kTopK, kSag };

/// Hierarchical pooling encoder (the SAGPool-h architecture): blocks of
/// GCN convolution + top-k pooling; after every block a [mean‖max]
/// readout is taken and the block readouts are summed. output_dim is
/// therefore 2·hidden_dim.
class HierarchicalPoolEncoder : public GraphEncoder {
 public:
  HierarchicalPoolEncoder(PoolKind kind, const EncoderConfig& config,
                          Rng* rng);

  Variable Encode(const GraphBatch& batch, bool training, Rng* rng) override;
  int output_dim() const override { return 2 * config_.hidden_dim; }

 private:
  EncoderConfig config_;
  std::unique_ptr<Linear> embed_;
  std::vector<std::unique_ptr<GcnConv>> convs_;
  std::vector<std::unique_ptr<TopKPool>> topk_pools_;
  std::vector<std::unique_ptr<SagPool>> sag_pools_;
};

/// Stack of FactorGCN convolutions with a mean readout.
class FactorGcnEncoder : public GraphEncoder {
 public:
  FactorGcnEncoder(const EncoderConfig& config, Rng* rng);

  Variable Encode(const GraphBatch& batch, bool training, Rng* rng) override;
  int output_dim() const override { return config_.hidden_dim; }

 private:
  EncoderConfig config_;
  std::unique_ptr<Linear> embed_;
  std::vector<std::unique_ptr<FactorGcnConv>> convs_;
};

}  // namespace oodgnn

#endif  // OODGNN_GNN_ENCODER_H_
