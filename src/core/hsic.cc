#include "src/core/hsic.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace oodgnn {
namespace {

/// Gaussian Gram matrix of a scalar sample, then double-centered:
/// HKH with H = I − 11ᵀ/N. Row-partitioned: every stage writes disjoint
/// rows (or reduces within a row), so results are backend-invariant.
std::vector<double> CenteredGram(const Tensor& x, double bandwidth) {
  const int n = x.rows();
  std::vector<double> gram(static_cast<size_t>(n) * n);
  const double inv = 1.0 / (2.0 * bandwidth * bandwidth);
  const Backend& be = GetBackend();
  be.ForCost(n, 8ll * n * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      for (int j = 0; j < n; ++j) {
        const double d = static_cast<double>(x.at(i, 0)) - x.at(j, 0);
        gram[static_cast<size_t>(i) * n + j] = std::exp(-d * d * inv);
      }
    }
  });
  // Double centering: per-row means in parallel, the scalar total mean
  // serially (fixed association order).
  std::vector<double> row_mean(static_cast<size_t>(n), 0.0);
  be.ForCost(n, static_cast<std::int64_t>(n) * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += gram[static_cast<size_t>(i) * n + j];
      row_mean[static_cast<size_t>(i)] = acc / n;
    }
  });
  double total_mean = 0.0;
  for (int i = 0; i < n; ++i) total_mean += row_mean[static_cast<size_t>(i)];
  total_mean /= n;
  be.ForCost(n, static_cast<std::int64_t>(n) * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      for (int j = 0; j < n; ++j) {
        gram[static_cast<size_t>(i) * n + j] +=
            total_mean - row_mean[static_cast<size_t>(i)] -
            row_mean[static_cast<size_t>(j)];
      }
    }
  });
  return gram;
}

}  // namespace

double MedianBandwidth(const Tensor& x) {
  const int n = x.rows();
  std::vector<double> dists;
  dists.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d =
          std::fabs(static_cast<double>(x.at(i, 0)) - x.at(j, 0));
      if (d > 0) dists.push_back(d);
    }
  }
  if (dists.empty()) return 1.0;
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  const double median = dists[dists.size() / 2];
  return median > 1e-12 ? median : 1.0;
}

double ExactHsic(const Tensor& x, const Tensor& y, double bandwidth) {
  OODGNN_TRACE_SCOPE("core/hsic_exact/us");
  OODGNN_CHECK_EQ(x.cols(), 1);
  OODGNN_CHECK_EQ(y.cols(), 1);
  OODGNN_CHECK_EQ(x.rows(), y.rows());
  const int n = x.rows();
  OODGNN_CHECK_GT(n, 1);

  const double bx = bandwidth > 0 ? bandwidth : MedianBandwidth(x);
  const double by = bandwidth > 0 ? bandwidth : MedianBandwidth(y);
  std::vector<double> kx = CenteredGram(x, bx);
  std::vector<double> ky = CenteredGram(y, by);

  // trace(Kx_centered · Ky_centered) = Σ_ij Kx[i,j]·Ky[j,i]; both are
  // symmetric, so an element-wise product sum suffices. Per-row partial
  // sums run in parallel; the final row-major sum is serial so the
  // association order is fixed.
  std::vector<double> row_trace(static_cast<size_t>(n), 0.0);
  GetBackend().ForCost(n, 2ll * n * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) {
        const size_t idx = static_cast<size_t>(i) * n + j;
        acc += kx[idx] * ky[idx];
      }
      row_trace[static_cast<size_t>(i)] = acc;
    }
  });
  double trace = 0.0;
  for (int i = 0; i < n; ++i) trace += row_trace[static_cast<size_t>(i)];
  const double denom = static_cast<double>(n - 1) * (n - 1);
  return trace / denom;
}

double ExactPairwiseHsic(const Tensor& z, double bandwidth) {
  OODGNN_TRACE_SCOPE("core/hsic_pairwise/us");
  const int d = z.cols();
  const int n = z.rows();
  // Materialize the dimension-pair list, score every pair independently
  // (each pair builds two n×n Grams — embarrassingly parallel), then sum
  // serially in the serial loop's (i, j) order.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(d) * (d - 1) / 2);
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) pairs.emplace_back(i, j);
  }
  std::vector<double> pair_hsic(pairs.size(), 0.0);
  const std::int64_t per_pair_cost = 16ll * n * n;
  GetBackend().ForCost(
      static_cast<int>(pairs.size()),
      per_pair_cost * static_cast<std::int64_t>(pairs.size()),
      [&](int p0, int p1) {
        for (int p = p0; p < p1; ++p) {
          const auto [i, j] = pairs[static_cast<size_t>(p)];
          Tensor xi(n, 1);
          Tensor xj(n, 1);
          for (int r = 0; r < n; ++r) {
            xi.at(r, 0) = z.at(r, i);
            xj.at(r, 0) = z.at(r, j);
          }
          pair_hsic[static_cast<size_t>(p)] = ExactHsic(xi, xj, bandwidth);
        }
      });
  double total = 0.0;
  for (double v : pair_hsic) total += v;
  return total;
}

}  // namespace oodgnn
