#include "src/core/rff.h"

#include <cmath>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace oodgnn {

Tensor CrossDimensionMask(const std::vector<int>& source_dim) {
  const int m = static_cast<int>(source_dim.size());
  Tensor mask = Tensor::Unfilled(m, m);
  for (int a = 0; a < m; ++a) {
    float* row = mask.row(a);
    for (int b = 0; b < m; ++b) {
      row[b] = source_dim[static_cast<size_t>(a)] !=
                       source_dim[static_cast<size_t>(b)]
                   ? 1.f
                   : 0.f;
    }
  }
  return mask;
}

RffFeatureMap::RffFeatureMap(int input_dim, const RffConfig& config, Rng* rng)
    : input_dim_(input_dim), config_(config) {
  OODGNN_CHECK_GT(input_dim, 0);
  OODGNN_CHECK_GT(config.num_functions, 0);
  OODGNN_CHECK(config.dim_fraction > 0.f && config.dim_fraction <= 1.f);

  // Randomly select the subset of representation dimensions to measure.
  if (config.dim_fraction >= 1.f) {
    selected_dims_.resize(static_cast<size_t>(input_dim));
    for (int i = 0; i < input_dim; ++i) {
      selected_dims_[static_cast<size_t>(i)] = i;
    }
  } else {
    const int keep = std::max(
        2, static_cast<int>(std::lround(config.dim_fraction * input_dim)));
    std::vector<size_t> perm = rng->Permutation(static_cast<size_t>(input_dim));
    for (int i = 0; i < keep; ++i) {
      selected_dims_.push_back(static_cast<int>(perm[static_cast<size_t>(i)]));
    }
  }

  const int per_dim = config.linear_only ? 1 : config.num_functions;
  for (int dim : selected_dims_) {
    for (int q = 0; q < per_dim; ++q) {
      feature_source_dim_.push_back(dim);
      omega_.push_back(static_cast<float>(rng->Normal(0.0, 1.0)));
      phase_.push_back(
          static_cast<float>(rng->Uniform(0.0, 2.0 * M_PI)));
    }
  }
  pair_mask_ = CrossDimensionMask(feature_source_dim_);
}

Tensor RffFeatureMap::Transform(const Tensor& z) const {
  OODGNN_TRACE_SCOPE("core/rff_transform/us");
  OODGNN_CHECK_EQ(z.cols(), input_dim_);
  const int n = z.rows();
  const int m = num_features();
  Tensor out(n, m);
  const float kSqrt2 = static_cast<float>(std::sqrt(2.0));
  // Rows are independent, so the map partitions cleanly across the
  // backend's workers (the cos() makes this the per-batch hot loop);
  // the backend also picks the SIMD mirror of the kernel when enabled.
  GetBackend().RffMap(z, feature_source_dim_, omega_, phase_,
                      config_.linear_only, kSqrt2, &out);
  return out;
}

}  // namespace oodgnn
