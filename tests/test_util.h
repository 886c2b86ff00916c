#ifndef OODGNN_TESTS_TEST_UTIL_H_
#define OODGNN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/decorrelation.h"
#include "src/core/rff.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/graph.h"
#include "src/nn/module.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"
#include "src/train/checkpoint.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace test {

/// Manually driven Clock for timing tests: starts at `start_us` and
/// moves only when the test says so. Injected wherever production code
/// takes a Clock* (request spans, token buckets, deadlines), it makes
/// every time-driven decision reproducible without wall-clock sleeps.
/// Thread-safe: submitter/worker threads may read while the test
/// advances.
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

/// The composite chain a tail replaces: the plain product (an empty
/// tail) → RowBroadcastAcc(bias) → RowBroadcastAcc(−mean) → the
/// row-vector divide by σ and multiply by γ (the loops of the deleted
/// DivRowVec and MulRowVec kernels) → RowBroadcastAcc(β) → Relu, each
/// step present when `tail` has it.
inline Tensor CompositeTail(const Tensor& a, const Tensor& b,
                            const kernels::MatMulTail& tail,
                            const TailRows& rows) {
  const Backend& be = GetBackend();
  Tensor out = Tensor::Unfilled(a.rows(), b.cols());
  be.MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
  if (tail.bias != nullptr) be.RowBroadcastAcc(rows.bias, &out);
  if (tail.neg_mean != nullptr) {
    be.RowBroadcastAcc(rows.neg_mean, &out);
    for (int r = 0; r < out.rows(); ++r) {
      for (int c = 0; c < out.cols(); ++c) {
        const float normalized = out.at(r, c) / rows.std_dev[c];
        out.at(r, c) = normalized * rows.gamma[c];
      }
    }
    be.RowBroadcastAcc(rows.beta, &out);
  }
  if (!tail.relu) return out;
  Tensor relu(out.rows(), out.cols());
  be.Relu(out, &relu);
  return relu;
}

// The row-vector ops the BatchNorm1d node replaced, kept for the
// composite references below with the arithmetic and accumulation
// order their deleted kernels had.

/// Column sums [m,n] -> [1,n]; the adjoint broadcasts g over rows.
inline Variable SumRows(const Variable& a) {
  Tensor out(1, a.cols());
  GetBackend().ColumnSumAcc(a.value(), &out);
  std::shared_ptr<VariableNode> pa = a.node();
  return Variable::MakeOp(std::move(out), {pa}, [pa](VariableNode& self) {
    if (!pa->requires_grad) return;
    GetBackend().RowBroadcastAcc(self.grad, &pa->GradBuffer());
  });
}

/// Column means [m,n] -> [1,n]: SumRows scaled by 1/m.
inline Variable MeanRows(const Variable& a) {
  return Scale(SumRows(a), 1.f / static_cast<float>(a.rows()));
}

/// a[m,n] · b[1,n] broadcast over rows.
inline Variable MulRowVec(const Variable& a, const Variable& b) {
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      out.at(r, c) = a.value().at(r, c) * b.value()[c];
    }
  }
  std::shared_ptr<VariableNode> pa = a.node();
  std::shared_ptr<VariableNode> pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        const Tensor& g = self.grad;
        if (pa->requires_grad) {
          Tensor& da = pa->GradBuffer();
          for (int r = 0; r < g.rows(); ++r) {
            for (int c = 0; c < g.cols(); ++c) {
              da.at(r, c) += g.at(r, c) * pb->value[c];
            }
          }
        }
        if (pb->requires_grad) {
          Tensor& db = pb->GradBuffer();
          for (int r = 0; r < g.rows(); ++r) {
            for (int c = 0; c < g.cols(); ++c) {
              db[c] += g.at(r, c) * pa->value.at(r, c);
            }
          }
        }
      });
}

/// a[m,n] / b[1,n] broadcast over rows.
inline Variable DivRowVec(const Variable& a, const Variable& b) {
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      out.at(r, c) = a.value().at(r, c) / b.value()[c];
    }
  }
  std::shared_ptr<VariableNode> pa = a.node();
  std::shared_ptr<VariableNode> pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        const Tensor& g = self.grad;
        if (pa->requires_grad) {
          Tensor& da = pa->GradBuffer();
          for (int r = 0; r < g.rows(); ++r) {
            for (int c = 0; c < g.cols(); ++c) {
              da.at(r, c) += g.at(r, c) / pb->value[c];
            }
          }
        }
        if (pb->requires_grad) {
          // d/db (a/b) = −y/b with y = a/b: column sums of g ⊙ y, then
          // scaled by −1/b per column.
          Tensor colsum(1, g.cols());
          for (int r = 0; r < g.rows(); ++r) {
            for (int c = 0; c < g.cols(); ++c) {
              colsum[c] += g.at(r, c) * self.value.at(r, c);
            }
          }
          Tensor& db = pb->GradBuffer();
          for (int c = 0; c < g.cols(); ++c) db[c] -= colsum[c] / pb->value[c];
        }
      });
}

/// BatchNorm1d::Forward(x, training, relu) as the composite ops it was
/// before it became one tape node, kept as the reference for its
/// values, running statistics and gradients: gamma and beta stand for
/// the parameters, running_mean and running_var for the buffers it
/// updates with `momentum`.
inline Variable CompositeBatchNorm(const Variable& x, const Variable& gamma,
                                   const Variable& beta, Tensor* running_mean,
                                   Tensor* running_var, float momentum,
                                   float eps, bool training, bool relu) {
  Variable centered;
  Variable var;
  if (training && x.rows() > 1) {
    Variable mean = MeanRows(x);
    centered = AddRowVec(x, Scale(mean, -1.f));
    var = MeanRows(Square(centered));
    for (int c = 0; c < x.cols(); ++c) {
      running_mean->at(0, c) = (1.f - momentum) * running_mean->at(0, c) +
                               momentum * mean.value().at(0, c);
      running_var->at(0, c) = (1.f - momentum) * running_var->at(0, c) +
                              momentum * var.value().at(0, c);
    }
  } else {
    Variable mean = Variable::Constant(*running_mean);
    var = Variable::Constant(*running_var);
    centered = AddRowVec(x, Scale(mean, -1.f));
  }
  Variable std = SqrtOp(AddScalar(var, eps));
  Variable normalized = DivRowVec(centered, std);
  Variable out = AddRowVec(MulRowVec(normalized, gamma), beta);
  return relu ? Relu(out) : out;
}

/// The transpose of `t`.
inline Tensor Transposed(const Tensor& t) {
  Tensor out(t.cols(), t.rows());
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < t.cols(); ++c) out.at(c, r) = t.at(r, c);
  }
  return out;
}

/// The decorrelation objective as the composite of differentiable ops
/// DecorrelationLoss was before it became one tape node, kept as the
/// reference for its value and closed-form gradient: U = diag(w)·F
/// centered by MeanRows, G = UᵀU/(N−1) through an explicit transpose
/// op, then ½·Σ (mask ⊙ G)², the mask built from feature_source_dim.
inline Variable CompositeDecorrelationLoss(
    const Tensor& features, const std::vector<int>& feature_source_dim,
    const Variable& weights) {
  const int n = features.rows();
  const int m = features.cols();
  Variable f = Variable::Constant(features);
  Variable weighted = MulColVec(f, weights);
  Variable mean = MeanRows(weighted);
  Variable centered = AddRowVec(weighted, Scale(mean, -1.f));
  // Uᵀ as an op: the transposed value, and the transposed gradient
  // added back.
  std::shared_ptr<VariableNode> pc = centered.node();
  Variable centered_t = Variable::MakeOp(
      Transposed(centered.value()), {pc}, [pc](VariableNode& self) {
        Tensor& grad = pc->GradBuffer();
        for (int r = 0; r < grad.rows(); ++r) {
          for (int c = 0; c < grad.cols(); ++c) {
            grad.at(r, c) += self.grad.at(c, r);
          }
        }
      });
  Variable cov = Scale(MatMul(centered_t, centered),
                       1.f / static_cast<float>(n - 1));
  Tensor mask(m, m);
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      mask.at(a, b) = feature_source_dim[static_cast<size_t>(a)] !=
                              feature_source_dim[static_cast<size_t>(b)]
                          ? 1.f
                          : 0.f;
    }
  }
  Variable masked = Mul(cov, Variable::Constant(mask));
  return Scale(Sum(Square(masked)), 0.5f);
}

/// 1×n row vector from values.
inline Tensor RowVector(std::vector<float> values) {
  const int n = static_cast<int>(values.size());
  return Tensor::FromData(1, n, std::move(values));
}

/// Largest absolute element (0 for empty tensors).
inline float MaxAbs(const Tensor& t) {
  float m = 0.f;
  for (int i = 0; i < t.size(); ++i) m = std::max(m, std::fabs(t[i]));
  return m;
}

/// Number of connected components (undirected interpretation): the
/// oracle for the generators' connectivity.
inline int NumConnectedComponents(const Graph& graph) {
  const int n = graph.num_nodes();
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int a) {
    while (parent[static_cast<size_t>(a)] != a) {
      parent[static_cast<size_t>(a)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(a)])];
      a = parent[static_cast<size_t>(a)];
    }
    return a;
  };
  int components = n;
  for (size_t i = 0; i < graph.edge_src.size(); ++i) {
    int ra = find(graph.edge_src[i]);
    int rb = find(graph.edge_dst[i]);
    if (ra != rb) {
      parent[static_cast<size_t>(ra)] = rb;
      --components;
    }
  }
  return components;
}

/// Unweighted dependence diagnostic: the decorrelation objective of
/// Eqs. (5)/(7) with uniform weights, Σ_{i<j}‖Ĉ_ij‖_F². Near zero iff
/// the (RFF-measured) dimensions are pairwise uncorrelated — the
/// empirical analogue of Proposition 1.
inline double DependenceMeasure(const Tensor& z, const RffFeatureMap& rff) {
  Tensor features = rff.Transform(z);
  Variable uniform = Variable::Constant(Tensor(z.rows(), 1, 1.f));
  Variable loss =
      DecorrelationLoss(features, rff.feature_source_dim(), uniform);
  return static_cast<double>(loss.value()[0]);
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
