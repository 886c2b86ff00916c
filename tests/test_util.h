#ifndef OODGNN_TESTS_TEST_UTIL_H_
#define OODGNN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/tensor/tensor.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace test {

/// Manually driven Clock for timing tests: starts at `start_us` and
/// moves only when the test says so. Injected wherever production code
/// takes a Clock* (request spans, SLO windows, token buckets,
/// deadlines), it makes every time-driven decision reproducible
/// without wall-clock sleeps. Thread-safe: submitter/worker threads
/// may read while the test advances.
///
/// Set() may move time backwards on purpose — the clock-jump edge case
/// the SLO property tests exercise (consumers are expected to clamp).
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t start_us = 1000000) : now_us_(start_us) {}

  std::int64_t NowMicros() const override {
    return now_us_.load(std::memory_order_relaxed);
  }

  /// Moves time forward by `delta_us` (>= 0) and returns the new time.
  std::int64_t Advance(std::int64_t delta_us) {
    return now_us_.fetch_add(delta_us, std::memory_order_relaxed) + delta_us;
  }

  /// Jumps to an absolute time — possibly backwards.
  void Set(std::int64_t now_us) {
    now_us_.store(now_us, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> now_us_;
};

/// Process-unique temp path under gtest's TempDir.
///
/// Unique per top-level test process so the env-variant re-runs of a
/// binary (<name>_threads4 / _profile / _scalar) don't race on
/// shared files under a parallel ctest. The token is carried in the
/// environment (OODGNN_TEST_TMP_TOKEN) so crash-injection /
/// death-test children resolve the parent's paths instead of minting
/// their own.
inline std::string TempPath(const std::string& name) {
  static const std::string token = [] {
    const char* env = std::getenv("OODGNN_TEST_TMP_TOKEN");
    if (env != nullptr && *env != '\0') return std::string(env);
    const std::string fresh = std::to_string(static_cast<long>(::getpid()));
    ::setenv("OODGNN_TEST_TMP_TOKEN", fresh.c_str(), 1);
    return fresh;
  }();
  return std::string(::testing::TempDir()) + "/tok" + token + "_" + name;
}

/// The per-column [1, n] rows of a Linear → BatchNorm1d (eval) → ReLU
/// chain, for kernels::MatMulTail tests.
struct TailRows {
  Tensor bias, neg_mean, std_dev, gamma, beta;
};

/// A [1, n] row of values in [0.5, 2.5): a standard deviation
/// √(var + ε) is positive.
inline Tensor PositiveRow(int n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomUniform(1, n, &rng, 0.5f, 2.5f);
}

/// The tails the models use: bias only (every Linear without grad
/// mode), bias + ReLU (a hidden Linear without BatchNorm), bias +
/// BatchNorm (GIN's last layer) and bias + BatchNorm + ReLU.
inline std::vector<kernels::MatMulTail> ModelTails(const TailRows& rows) {
  kernels::MatMulTail bias;
  bias.bias = rows.bias.data();
  kernels::MatMulTail norm = bias;
  norm.neg_mean = rows.neg_mean.data();
  norm.std_dev = rows.std_dev.data();
  norm.gamma = rows.gamma.data();
  norm.beta = rows.beta.data();
  kernels::MatMulTail bias_relu = bias;
  bias_relu.relu = true;
  kernels::MatMulTail norm_relu = norm;
  norm_relu.relu = true;
  return {bias, bias_relu, norm, norm_relu};
}

/// The composite Backend chain a tail replaces: MatMulAcc into zeros →
/// RowBroadcastAcc(bias) → RowBroadcastAcc(−mean) → DivRowVec →
/// MulRowVec → RowBroadcastAcc(β) → Relu, each step present when
/// `tail` has it.
inline Tensor CompositeTail(const Tensor& a, const Tensor& b,
                            const kernels::MatMulTail& tail,
                            const TailRows& rows) {
  const Backend& be = GetBackend();
  Tensor out(a.rows(), b.cols());
  be.MatMulAcc(a, b, &out);
  if (tail.bias != nullptr) be.RowBroadcastAcc(rows.bias, &out);
  if (tail.neg_mean != nullptr) {
    be.RowBroadcastAcc(rows.neg_mean, &out);
    Tensor normalized(out.rows(), out.cols());
    be.DivRowVec(out, rows.std_dev, &normalized);
    be.MulRowVec(normalized, rows.gamma, &out);
    be.RowBroadcastAcc(rows.beta, &out);
  }
  if (!tail.relu) return out;
  Tensor relu(out.rows(), out.cols());
  be.Relu(out, &relu);
  return relu;
}

}  // namespace test
}  // namespace oodgnn

#endif  // OODGNN_TESTS_TEST_UTIL_H_
