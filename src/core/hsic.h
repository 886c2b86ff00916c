#ifndef OODGNN_CORE_HSIC_H_
#define OODGNN_CORE_HSIC_H_

#include "src/tensor/tensor.h"

namespace oodgnn {

/// Exact (biased) empirical Hilbert-Schmidt Independence Criterion
/// between two scalar samples x and y (each an N×1 column) with
/// Gaussian kernels:
///   HSIC(x, y) = trace(K H L H) / (N−1)²,  H = I − 11ᵀ/N.
/// O(N²) time and memory — this is the estimator the paper deems
/// infeasible for training on large datasets (§3.2); the library uses
/// it as the ground-truth reference that the RFF approximation is
/// validated against (see tests/core_test.cc and bench_kernels).
///
/// `bandwidth` is the Gaussian kernel σ; pass <= 0 to use the median
/// heuristic.
double ExactHsic(const Tensor& x, const Tensor& y, double bandwidth = -1.0);

/// Sum of exact pairwise HSIC over all dimension pairs i<j of a
/// representation matrix Z [N, d] — the exact counterpart of the
/// uniformly weighted DecorrelationLoss. O(d²·N²).
double ExactPairwiseHsic(const Tensor& z, double bandwidth = -1.0);

/// Median pairwise distance of a scalar sample (the classic bandwidth
/// heuristic). Returns 1 for degenerate samples.
double MedianBandwidth(const Tensor& x);

}  // namespace oodgnn

#endif  // OODGNN_CORE_HSIC_H_
