#ifndef OODGNN_CORE_RFF_H_
#define OODGNN_CORE_RFF_H_

#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

class Rng;

/// The [M, M] mask of the decorrelation objective (DecorrelationLoss)
/// over M feature columns: mask[a][b] = 1 where source_dim[a] and
/// source_dim[b] differ, 0 where both come from one dimension.
Tensor CrossDimensionMask(const std::vector<int>& source_dim);

/// Configuration of the random-Fourier-feature map of Eq. (4).
struct RffConfig {
  /// Number of random Fourier functions per representation dimension
  /// (the Q of Eq. 4). The paper uses Q=1 by default and sweeps
  /// {0.2x … 2x} in the Fig. 2 ablation.
  int num_functions = 1;

  /// Fraction of representation dimensions included in the dependence
  /// measure (the "0.2x/0.5x" points of Fig. 2). 1.0 keeps all.
  float dim_fraction = 1.f;

  /// Ablation "no RFF": skip the Fourier map entirely so the objective
  /// degenerates to removing *linear* correlation only.
  bool linear_only = false;
};

/// The per-dimension random Fourier feature map
///   h_q(x) = sqrt(2)·cos(w_q·x + φ_q),  w_q ~ N(0,1), φ_q ~ U(0,2π),
/// applied independently to every (selected) column of a representation
/// matrix. Frozen at construction so the same map is used across
/// training iterations.
class RffFeatureMap {
 public:
  /// Builds a map for representations with `input_dim` columns.
  RffFeatureMap(int input_dim, const RffConfig& config, Rng* rng);

  /// Transforms Z [N, input_dim] into features [N, num_features()],
  /// laid out as Q consecutive columns per selected input dimension.
  Tensor Transform(const Tensor& z) const;

  /// Total output feature columns (#selected dims × Q, or #selected
  /// dims in linear mode).
  int num_features() const {
    return static_cast<int>(feature_source_dim_.size());
  }

  /// For each output column, the input dimension it derives from. Used
  /// to exclude same-dimension pairs from the dependence objective.
  const std::vector<int>& feature_source_dim() const {
    return feature_source_dim_;
  }

  /// CrossDimensionMask(feature_source_dim()), built once with the map.
  const Tensor& pair_mask() const { return pair_mask_; }

  int input_dim() const { return input_dim_; }
  bool linear_only() const { return config_.linear_only; }

 private:
  int input_dim_;
  RffConfig config_;
  std::vector<int> selected_dims_;
  std::vector<int> feature_source_dim_;
  std::vector<float> omega_;  ///< One frequency per output column.
  std::vector<float> phase_;  ///< One phase per output column.
  Tensor pair_mask_;
};

}  // namespace oodgnn

#endif  // OODGNN_CORE_RFF_H_
