#include "src/core/ood_gnn.h"

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace oodgnn {

OodGnnReweighter::OodGnnReweighter(int representation_dim, int batch_size,
                                   const OodGnnConfig& config, Rng* rng)
    : config_(config),
      rff_(representation_dim, config.rff, rng),
      bank_(GlobalWeightBank::WithUniformGamma(config.num_global_groups,
                                               batch_size, representation_dim,
                                               config.momentum)),
      optimizer_(config.weights) {}

std::vector<float> OodGnnReweighter::ComputeWeights(const Tensor& local_z) {
  OODGNN_TRACE_SCOPE("core/compute_weights/us");
  OODGNN_CHECK_EQ(local_z.cols(), rff_.input_dim());
  if (local_z.rows() < 2) {
    // A single-sample batch carries no pairwise dependence signal.
    return std::vector<float>(static_cast<size_t>(local_z.rows()), 1.f);
  }
  const GlobalWeightBank* bank =
      config_.use_global_bank ? &bank_ : nullptr;
  WeightOptimizerResult result = optimizer_.Optimize(local_z, rff_, bank);
  last_loss_ = result.final_loss;

  if (config_.use_global_bank) {
    Tensor local_w(local_z.rows(), 1);
    for (int i = 0; i < local_z.rows(); ++i) {
      local_w.at(i, 0) = result.weights[static_cast<size_t>(i)];
    }
    bank_.Update(local_z, local_w);
  }
  return result.weights;
}

}  // namespace oodgnn
