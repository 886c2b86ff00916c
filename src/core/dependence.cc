#include "src/core/dependence.h"

#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace oodgnn {

Tensor PairwiseDependenceMatrix(const Tensor& z, const RffFeatureMap& rff) {
  OODGNN_TRACE_SCOPE("core/dependence_matrix/us");
  OODGNN_CHECK_EQ(z.cols(), rff.input_dim());
  const int n = z.rows();
  OODGNN_CHECK_GT(n, 1);
  const Tensor features = rff.Transform(z);
  const int m = features.cols();
  const std::vector<int>& source = rff.feature_source_dim();
  const Backend& be = GetBackend();

  // Column means of the (uniformly weighted) features; each column sums
  // over samples in ascending-row order at every thread count.
  std::vector<double> mean(static_cast<size_t>(m), 0.0);
  be.ForCost(m, static_cast<std::int64_t>(n) * m, [&](int c0, int c1) {
    for (int c = c0; c < c1; ++c) {
      double acc = 0.0;
      for (int r = 0; r < n; ++r) acc += features.at(r, c);
      mean[static_cast<size_t>(c)] = acc / n;
    }
  });

  // Full covariance of the centered features, upper triangle; rows of
  // the covariance are independent, so the O(n·d²) contraction — the
  // decorrelation bottleneck of Eqs. 3–5 — partitions over them.
  Tensor cov(m, m);
  be.ForCost(m, 2ll * n * m * m, [&](int a0, int a1) {
    for (int a = a0; a < a1; ++a) {
      for (int r = 0; r < n; ++r) {
        const float* row = features.row(r);
        const double da = row[a] - mean[static_cast<size_t>(a)];
        for (int b = a; b < m; ++b) {
          const double db = row[b] - mean[static_cast<size_t>(b)];
          cov.at(a, b) += static_cast<float>(da * db);
        }
      }
    }
  });
  const float denom = static_cast<float>(n - 1);
  be.ForCost(m, static_cast<std::int64_t>(m) * m, [&](int a0, int a1) {
    for (int a = a0; a < a1; ++a) {
      for (int b = a; b < m; ++b) {
        cov.at(a, b) /= denom;
        cov.at(b, a) = cov.at(a, b);
      }
    }
  });

  // Accumulate squared covariance entries into per-dimension-pair cells.
  // Partitioned over *output* rows (source dimensions): each chunk scans
  // all feature pairs and keeps only those landing in its rows, so a
  // cell's accumulation order is ascending (a, b) regardless of chunking.
  Tensor dependence(rff.input_dim(), rff.input_dim());
  be.ForCost(rff.input_dim(), 2ll * m * m, [&](int i0, int i1) {
    for (int a = 0; a < m; ++a) {
      const int i = source[static_cast<size_t>(a)];
      if (i < i0 || i >= i1) continue;
      for (int b = 0; b < m; ++b) {
        const int j = source[static_cast<size_t>(b)];
        if (i == j) continue;
        dependence.at(i, j) += cov.at(a, b) * cov.at(a, b);
      }
    }
  });
  return dependence;
}

}  // namespace oodgnn
