#ifndef OODGNN_TESTS_TEST_UTIL_H_
#define OODGNN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/gnn/model_zoo.h"
#include "src/nn/module.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"
#include "src/train/checkpoint.h"
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
/// Unique per top-level test process so test processes running under
/// a parallel ctest don't race on shared files. The token is carried
/// in the environment (OODGNN_TEST_TMP_TOKEN) so crash-injection /
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

/// Sets whether the per-kernel counters record (obs::ProfilingEnabled)
/// for one scope. On exit it zeroes the global metrics and restores the
/// previous setting, so tests cannot leak instrumentation into each
/// other.
class ScopedProfiling {
 public:
  explicit ScopedProfiling(bool enabled) : previous_(obs::ProfilingEnabled()) {
    obs::SetProfilingEnabled(enabled);
  }
  ~ScopedProfiling() {
    obs::MetricsRegistry::Global().Reset();
    obs::SetProfilingEnabled(previous_);
  }
  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;

 private:
  bool previous_;
};

/// One execution config of the determinism oracle (tests/oracle_test.cc):
/// the backend's thread count, SIMD dispatch and the kernel counters.
/// No output may depend on any of them.
struct ExecConfig {
  int threads = 1;
  bool simd = false;
  bool counters = false;

  std::string Describe() const {
    return "threads=" + std::to_string(threads) +
           " simd=" + (simd ? "on" : "off") +
           " counters=" + (counters ? "on" : "off");
  }
};

/// {threads 1, 4} × {SIMD off, on} × {counters off, on}. The first,
/// (1 thread, scalar, counters off), is the reference.
inline std::vector<ExecConfig> AllExecConfigs() {
  std::vector<ExecConfig> configs;
  for (int threads : {1, 4}) {
    for (bool simd : {false, true}) {
      for (bool counters : {false, true}) {
        configs.push_back({threads, simd, counters});
      }
    }
  }
  return configs;
}

/// Runs the rest of a scope under `config`, set in-process.
class ScopedExecConfig {
 public:
  explicit ScopedExecConfig(const ExecConfig& config)
      : threads_(config.threads),
        simd_(config.simd),
        profiling_(config.counters) {}

 private:
  ScopedBackendThreads threads_;
  simd::ScopedSimdEnabled simd_;
  ScopedProfiling profiling_;
};

/// A checkpoint holding `module`'s parameters and buffers, tagged
/// `method` — what LoadCheckpointWeights reads of a training snapshot.
inline TrainState ModuleCheckpoint(const Module& module, Method method) {
  TrainState state;
  state.method = static_cast<std::uint32_t>(method);
  for (const Variable& param : module.Parameters()) {
    state.params.push_back(param.value());
  }
  for (const Tensor* buffer : module.Buffers()) {
    state.buffers.push_back(*buffer);
  }
  return state;
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

/// The state text of a std::mt19937_64 (its operator<<), which
/// Rng::SaveState must reproduce byte for byte.
inline std::string StdEngineText(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

}  // namespace test
}  // namespace oodgnn

#endif  // OODGNN_TESTS_TEST_UTIL_H_
