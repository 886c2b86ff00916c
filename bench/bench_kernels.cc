// Benchmarks of the computational kernels behind OOD-GNN.
//
// Run with no arguments to get a serial-vs-parallel backend comparison
// (GFLOP/s, speedup, and a bitwise-identity check) for the three dense
// hot paths — matmul, segment sum, RFF cross-covariance — at the
// paper's batch scale and at 10× that scale. `--threads N` selects the
// parallel pool size (default 4, matching the CI configuration). A
// second table times grad-free eval of Linear → BatchNorm → ReLU as
// separate ops and as one pass (the tail applied in the matmul's
// store) at a DD_200 test batch and a small batch; the run exits
// nonzero when the two outputs diverge bitwise. A third times a
// train-mode BatchNorm + ReLU node's forward and backward beside a
// Linear's on the same input, single-threaded, at a mean TRIANGLES
// batch and a DD_200 batch.
//
// Pass any --benchmark* flag to run the google-benchmark micro-suite
// instead (GEMM, gather/scatter, RFF map, decorrelation loss, weight
// update), which supports the §4.7 complexity analysis: the
// decorrelation cost is O(K·|B|·d²) — independent of the dataset size.
//
// Pass --mp to run the message-passing comparison instead: the planned
// scatter and the fused gather-scatter over CSR segment plans
// (DESIGN.md §12) at several feature widths, serial and pooled. It
// exits nonzero when any result diverges bitwise. --mp-json <path> also
// writes the rows as a JSON report (scripts/run_bench_message_passing.sh
// wraps this into BENCH_message_passing.json).
//
// Pass --simd for the scalar-vs-SIMD dense-kernel table
// (DESIGN.md §16): single-threaded GFLOP/s for the vectorized matmul
// variants at the workloads' shapes (the reweighter's, a DD_200 batch
// dense and post-ReLU, a one-hot first layer), with an extra column
// for the AVX-512 matmul bodies, Dot, axpy, and the RFF map, plus the
// bitwise scalar==simd check; then the
// dropout mask in ns per element, as the per-element Rng::Bernoulli
// loop, the scalar kernel and the SIMD kernel, at mean 64-graph
// TRIANGLES and DD_200 batch shapes. It exits nonzero when any row
// diverges bitwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/benchmark.h"
#include "src/core/decorrelation.h"
#include "src/core/dependence.h"
#include "src/core/rff.h"
#include "src/core/weight_bank.h"
#include "src/core/weight_optimizer.h"
#include "src/nn/batchnorm.h"
#include "src/nn/linear.h"
#include "src/obs/json.h"
#include "src/tensor/backend.h"
#include "src/train/experiment.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_plan.h"
#include "src/tensor/simd.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

// ---------------------------------------------------------------------------
// Serial-vs-parallel backend comparison.
// ---------------------------------------------------------------------------

/// Median-free best-of-`reps` wall-clock of each of `fns`, in seconds
/// per call. Calibrates each one's iteration count so a repetition runs
/// at least ~50 ms, then interleaves the repetitions (fns[0], fns[1], …,
/// fns[0], …), so drift in the shared host's speed hits every one alike.
std::vector<double> TimeAlternating(
    const std::vector<std::function<void()>>& fns, int reps) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](const std::function<void()>& fn, int iters) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<int> iters;
  for (const auto& fn : fns) {
    fn();  // Warm-up.
    int n = 1;
    while (seconds(fn, n) < 0.05 && n < (1 << 22)) n *= 2;
    iters.push_back(n);
  }
  std::vector<double> best(fns.size(), 1e300);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t f = 0; f < fns.size(); ++f) {
      best[f] = std::min(best[f], seconds(fns[f], iters[f]) / iters[f]);
    }
  }
  return best;
}

/// TimeAlternating of one function, best of 3.
double TimePerCall(const std::function<void()>& fn) {
  return TimeAlternating({fn}, 3)[0];
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

struct Workload {
  std::string name;
  std::string shape;
  int64_t flops = 0;                ///< Per call, for the GFLOP/s column.
  std::function<Tensor()> run;      ///< Executes under the active backend.
};

void CompareBackends(int threads) {
  if (threads < 1) threads = 1;  // Backend clamps the same way.
  const int cores = BenchOptions::HardwareConcurrency();
  std::printf("Compute backend comparison: serial vs parallel (%d threads)\n",
              threads);
  std::printf("hardware_concurrency=%d%s\n\n", cores,
              cores <= 1 ? "  (single core: speedup <= 1 is expected here; "
                           "bitwise identity is the portable check)"
                         : "");

  std::vector<Workload> workloads;
  Rng rng(7);

  // Matmul at the encoder's batch shape: hidden states [N, d] times a
  // layer weight [d, d], N = batch of 128 graphs, d = 64.
  for (int scale : {1, 10}) {
    const int m = 128 * scale, k = 64, n = 64;
    auto a = std::make_shared<Tensor>(Tensor::RandomNormal(m, k, &rng));
    auto b = std::make_shared<Tensor>(Tensor::RandomNormal(k, n, &rng));
    workloads.push_back(
        {scale == 1 ? "matmul (paper)" : "matmul (10x)",
         "[" + std::to_string(m) + "x" + std::to_string(k) + "]x[" +
             std::to_string(k) + "x" + std::to_string(n) + "]",
         2ll * m * k * n, [a, b, m, n] {
           Tensor out = Tensor::Unfilled(m, n);
           GetBackend().MatMulWithTail(*a, *b, kernels::MatMulTail{}, &out);
           return out;
         }});
  }

  // Segment sum (graph readout): ~25 nodes per graph scattered into N
  // graph rows, d = 64.
  for (int scale : {1, 10}) {
    const int segs = 128 * scale, rows = segs * 25, dim = 64;
    auto h = std::make_shared<Tensor>(Tensor::RandomNormal(rows, dim, &rng));
    std::vector<int> index;
    for (int r = 0; r < rows; ++r) {
      index.push_back(static_cast<int>(rng.UniformInt(0, segs - 1)));
    }
    auto plan = std::make_shared<const SegmentPlan>(
        SegmentPlan::Build(std::move(index), segs));
    workloads.push_back(
        {scale == 1 ? "segment-sum (paper)" : "segment-sum (10x)",
         std::to_string(rows) + " rows -> " + std::to_string(segs) + " segs",
         static_cast<int64_t>(rows) * dim, [h, plan, segs, dim] {
           Tensor out(segs, dim);
           GetBackend().ScatterAddRowsPlanned(*h, *plan, &out);
           return out;
         }});
  }

  // RFF cross-covariance: the pairwise dependence matrix over RFF
  // features of a [N, 32] representation with Q = 5 Fourier functions
  // per dimension (Eq. 4 / §4.7 decorrelation cost).
  for (int scale : {1, 10}) {
    const int n = 128 * scale, d = 32;
    RffConfig config;
    config.num_functions = 5;
    auto rff = std::make_shared<RffFeatureMap>(d, config, &rng);
    auto z = std::make_shared<Tensor>(Tensor::RandomNormal(n, d, &rng));
    const int features = rff->num_features();
    workloads.push_back(
        {scale == 1 ? "rff-cross-cov (paper)" : "rff-cross-cov (10x)",
         "[" + std::to_string(n) + "x" + std::to_string(d) + "] Q=5",
         2ll * n * features * features,
         [rff, z] { return PairwiseDependenceMatrix(*z, *rff); }});
  }

  std::printf("%-22s %-22s %12s %14s %8s %8s\n", "workload", "shape",
              "serial GF/s", "parallel GF/s", "speedup", "bitwise");
  for (const Workload& w : workloads) {
    Tensor serial_out;
    double serial_s;
    {
      ScopedBackendThreads scoped(1);
      serial_out = w.run();
      serial_s = TimePerCall([&] { w.run(); });
    }
    Tensor parallel_out;
    double parallel_s;
    {
      ScopedBackendThreads scoped(threads);
      parallel_out = w.run();
      parallel_s = TimePerCall([&] { w.run(); });
    }
    const double gf_serial = static_cast<double>(w.flops) / serial_s / 1e9;
    const double gf_parallel = static_cast<double>(w.flops) / parallel_s / 1e9;
    std::printf("%-22s %-22s %12.2f %14.2f %7.2fx %8s\n", w.name.c_str(),
                w.shape.c_str(), gf_serial, gf_parallel,
                serial_s / parallel_s,
                BitwiseEqual(serial_out, parallel_out) ? "OK" : "DIVERGED");
  }
}

// ---------------------------------------------------------------------------
// One-pass eval Linear vs the separate no-grad ops it replaces.
// ---------------------------------------------------------------------------

/// Times GIN's hidden layer in grad-free eval, Linear → BatchNorm1d →
/// ReLU, two ways on a `threads` pool: separate ops (MatMul, AddRowVec
/// for the bias, the BatchNorm node's one store, then Relu, each op
/// allocating or copying its output) and Linear::ForwardNoGrad, which
/// applies all of them in the matmul's store. Shapes: the node count of
/// a DD_200 test batch and a small batch. Returns false when the two
/// outputs differ bitwise.
bool CompareMatMulTail(int threads) {
  std::printf("\nEval Linear -> BatchNorm -> ReLU: separate ops vs one "
              "pass (%d threads)\n",
              threads);
  std::printf("%-22s %-22s %13s %12s %8s %8s\n", "workload", "shape",
              "separate ms", "fused ms", "speedup", "bitwise");
  ScopedBackendThreads scoped(threads);
  NoGradGuard no_grad;
  Rng rng(17);
  const int d = 64;
  Linear linear(d, d, &rng);
  BatchNorm1d norm(d);
  // Off their init values (mean 0, var 1, γ 1, β 0), where a dropped or
  // reordered step would still match.
  for (Tensor* buffer : norm.Buffers()) {
    *buffer = Tensor::RandomUniform(1, d, &rng, 0.5f, 2.f);
  }
  for (Variable& param : norm.Parameters()) {
    param.mutable_value() = Tensor::RandomNormal(1, d, &rng);
  }
  const std::vector<Variable> weights = linear.Parameters();  // W, b
  bool all_ok = true;
  for (int m : {31000, 1000}) {
    // Post-ReLU input: about half the entries are exact zeros.
    Tensor x = Tensor::RandomNormal(m, d, &rng);
    for (int i = 0; i < x.size(); ++i) x[i] = std::max(x[i], 0.f);
    const Variable input = Variable::Constant(std::move(x));
    const auto separate = [&] {
      return Relu(norm.Forward(
          AddRowVec(MatMul(input, weights[0]), weights[1]), false));
    };
    const auto fused = [&] {
      return linear.ForwardNoGrad(input, &norm, /*relu=*/true);
    };
    const bool same = BitwiseEqual(separate().value(), fused().value());
    all_ok = all_ok && same;
    const double separate_s = TimePerCall([&] { separate(); });
    const double fused_s = TimePerCall([&] { fused(); });
    std::printf("%-22s %-22s %13.3f %12.3f %7.2fx %8s\n",
                m > 10000 ? "gin-hidden (DD_200)" : "gin-hidden (small)",
                ("[" + std::to_string(m) + "x64]x[64x64]").c_str(),
                separate_s * 1e3, fused_s * 1e3, separate_s / fused_s,
                same ? "OK" : "DIVERGED");
  }
  return all_ok;
}

/// Times one training step's worth of a train-mode BatchNorm1d + ReLU
/// node, forward then backward, beside a Linear's forward and backward
/// on the same [m×64] input, single-threaded and alternating, at a mean
/// TRIANGLES batch (1031 nodes) and a DD_200 batch (7230). The input is
/// a trainable leaf; both backward passes seed the same upstream
/// gradient.
void CompareBatchNormToLinear() {
  std::printf("\nTrain BatchNorm + ReLU node vs Linear, forward + backward "
              "(1 thread)\n");
  std::printf("%-22s %-12s %14s %10s %8s\n", "workload", "shape",
              "batchnorm ms", "linear ms", "ratio");
  ScopedBackendThreads scoped(1);
  Rng rng(19);
  const int d = 64;
  Linear linear(d, d, &rng);
  BatchNorm1d norm(d);
  for (Variable& param : norm.Parameters()) {
    param.mutable_value() = Tensor::RandomUniform(1, d, &rng, 0.5f, 1.5f);
  }
  for (int m : {1031, 7230}) {
    const Variable input = Variable::Param(Tensor::RandomNormal(m, d, &rng));
    const Tensor seed = Tensor::RandomNormal(m, d, &rng);
    const auto batch_norm = [&] {
      norm.Forward(input, /*training=*/true, /*relu=*/true).Backward(seed);
    };
    const auto dense = [&] { linear.Forward(input).Backward(seed); };
    const std::vector<double> s = TimeAlternating({batch_norm, dense}, 5);
    std::printf("%-22s %-12s %14.3f %10.3f %7.2fx\n",
                m > 5000 ? "train-bn-relu (DD_200)" : "train-bn-relu (tri)",
                ("[" + std::to_string(m) + "x64]").c_str(), s[0] * 1e3,
                s[1] * 1e3, s[0] / s[1]);
  }
}

// ---------------------------------------------------------------------------
// Scalar vs SIMD kernel comparison (--simd).
// ---------------------------------------------------------------------------

/// The dropout mask three ways, in ns per element: the per-element
/// Rng::Bernoulli loop Dropout once ran, and Backend::DropoutMask with
/// the scalar kernel and with the SIMD kernel. All three must give the
/// same mask bitwise and leave the stream in the same state. Returns
/// false when they do not.
bool CompareDropoutMask() {
  constexpr double kP = 0.5;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - kP));
  std::printf("\nDropout mask at p = %.1f (single thread, ns per element; "
              "rows: mean 64-graph TRIANGLES and DD_200 batches)\n",
              kP);
  std::printf("%-14s %-12s %12s %12s %12s %8s\n", "kernel", "shape",
              "bernoulli", "scalar", "simd", "bitwise");
  const auto bernoulli_loop = [&](Rng* rng, Tensor* mask) {
    for (int i = 0; i < mask->size(); ++i) {
      (*mask)[i] = rng->Bernoulli(kP) ? 0.f : keep_scale;
    }
  };
  const auto kernel = [&](bool vector) {
    return [&, vector](Rng* rng, Tensor* mask) {
      simd::ScopedSimdEnabled toggle(vector);
      GetBackend().DropoutMask(kP, keep_scale, rng, mask);
    };
  };
  const std::function<void(Rng*, Tensor*)> ways[] = {
      bernoulli_loop, kernel(false), kernel(true)};
  bool all_equal = true;
  for (const int rows : {1031, 7230}) {
    constexpr int kCols = 64;
    std::vector<Tensor> masks;
    std::vector<std::string> states;
    double ns[3];
    for (int w = 0; w < 3; ++w) {
      Rng check_rng(23);
      check_rng.UniformInt(0, 100);  // Start mid-block.
      masks.push_back(Tensor::Unfilled(rows, kCols));
      ways[w](&check_rng, &masks.back());
      states.push_back(check_rng.SaveState());
      Rng rng(29);
      Tensor mask = Tensor::Unfilled(rows, kCols);
      ns[w] = TimePerCall([&] { ways[w](&rng, &mask); }) * 1e9 /
              (static_cast<double>(rows) * kCols);
    }
    const bool equal = BitwiseEqual(masks[0], masks[1]) &&
                       BitwiseEqual(masks[0], masks[2]) &&
                       states[0] == states[1] && states[0] == states[2];
    all_equal = all_equal && equal;
    const std::string shape =
        "[" + std::to_string(rows) + "x" + std::to_string(kCols) + "]";
    std::printf("%-14s %-12s %12.2f %12.2f %12.2f %8s\n", "dropout_mask",
                shape.c_str(), ns[0], ns[1], ns[2],
                equal ? "OK" : "DIVERGED");
  }
  return all_equal;
}

/// Single-threaded GFLOP/s for the vectorized dense kernels
/// (DESIGN.md §16): the scalar oracle, its SIMD mirror and, for the
/// matmul family, the AVX-512 body (direct simd:: and simd::avx512::
/// calls, bypassing the Backend dispatch), each row's columns timed in
/// alternating repetitions. Every vector result must be bitwise
/// identical to scalar. Returns false when one is not.
bool CompareSimd() {
  std::printf("Dense kernels: scalar vs SIMD (single thread; vector "
              "dispatch runs the %s matmul body)\n",
              simd::IsaName());
  if (!simd::Available()) {
    std::printf("(no vector ISA compiled/detected: simd:: delegates to the "
                "scalar kernels, so speedup ~1.0x is expected)\n");
  }
  std::printf("(simd: the AVX2 (NEON) bodies; avx512: the AVX-512 matmul "
              "bodies, n/a on a CPU without avx512f, - where there is "
              "none; speedup: scalar / simd)\n");
  std::printf("(-z50 rows: half of the a operand is exact zeros, as after "
              "ReLU; -1hot rows: one 1 per row of a)\n");
  std::printf("\n%-14s %-24s %12s %12s %12s %8s %8s\n", "kernel", "shape",
              "scalar GF/s", "simd GF/s", "avx512 GF/s", "speedup",
              "bitwise");

  struct Row {
    std::string name;
    std::string shape;
    int64_t flops;
    std::function<void(Tensor*)> scalar;
    std::function<void(Tensor*)> vector;
    int out_rows, out_cols;
    std::function<void(Tensor*)> avx512 = nullptr;  ///< matmul family only
  };
  std::vector<Row> rows;
  Rng rng(13);

  // The matmul family at the workloads' shapes: the reweighter's
  // [128×64] RFF features (G = UᵀU and U·(mask ⊙ G)), a DD_200 batch of
  // 7230 nodes through a 64-wide Linear, its post-ReLU form (half the
  // entries exact zeros) and the one-hot first layer of a TRIANGLES
  // batch ([1031×17] features). a·b runs as MatMulWithTail with an
  // empty tail, the forward MatMul's entry; aᵀ·b is a weight gradient
  // (or G), a·bᵀ an input gradient.
  const auto coefs = [&rng](int m, int k, int zero_pct, bool one_hot) {
    auto a = std::make_shared<Tensor>(
        one_hot ? Tensor(m, k) : Tensor::RandomNormal(m, k, &rng));
    if (one_hot) {
      for (int r = 0; r < m; ++r) {
        a->at(r, static_cast<int>(rng.UniformInt(0, k - 1))) = 1.f;
      }
    }
    for (int i = 0; i < a->size(); ++i) {
      if (rng.Uniform() * 100.0 < zero_pct) (*a)[i] = 0.f;
    }
    return a;
  };
  const auto dims = [](int m, int k, int n, bool trans_a) {
    return "[" + std::to_string(m) + "x" + std::to_string(k) + "]" +
           (trans_a ? "Tx[" + std::to_string(m) : "x[" + std::to_string(k)) +
           "x" + std::to_string(n) + "]";
  };
  struct MatMulRow {
    const char* suffix;
    int m, k, n, zero_pct;
    bool one_hot;
  };
  const kernels::MatMulTail none;
  for (const MatMulRow& r : {MatMulRow{"", 128, 64, 64, 0, false},
                             MatMulRow{"", 7230, 64, 64, 0, false},
                             MatMulRow{"-z50", 7230, 64, 64, 50, false},
                             MatMulRow{"-1hot", 1031, 17, 64, 0, true}}) {
    auto a = coefs(r.m, r.k, r.zero_pct, r.one_hot);
    auto b = std::make_shared<Tensor>(Tensor::RandomNormal(r.k, r.n, &rng));
    auto bm = std::make_shared<Tensor>(Tensor::RandomNormal(r.m, r.n, &rng));
    auto bt = std::make_shared<Tensor>(Tensor::RandomNormal(r.n, r.k, &rng));
    const int64_t flops = 2ll * r.m * r.k * r.n;
    const int m = r.m, k = r.k;
    const std::string suffix = r.suffix;
    rows.push_back({"matmul" + suffix, dims(r.m, r.k, r.n, false), flops,
                    [=](Tensor* o) {
                      kernels::MatMulWithTail(*a, *b, none, o, 0, m);
                    },
                    [=](Tensor* o) {
                      simd::MatMulWithTail(*a, *b, none, o, 0, m);
                    },
                    r.m, r.n,
                    [=](Tensor* o) {
                      simd::avx512::MatMulWithTail(*a, *b, none, o, 0, m);
                    }});
    rows.push_back({"transA" + suffix, dims(r.m, r.k, r.n, true), flops,
                    [=](Tensor* o) {
                      kernels::MatMulTransAAcc(*a, *bm, o, 0, k);
                    },
                    [=](Tensor* o) { simd::MatMulTransAAcc(*a, *bm, o, 0, k); },
                    r.k, r.n,
                    [=](Tensor* o) {
                      simd::avx512::MatMulTransAAcc(*a, *bm, o, 0, k);
                    }});
    if (r.zero_pct == 0 && !r.one_hot) {
      rows.push_back({"transB", dims(r.m, r.k, r.n, false), flops,
                      [=](Tensor* o) {
                        kernels::MatMulTransBAcc(*a, *bt, o, 0, m);
                      },
                      [=](Tensor* o) {
                        simd::MatMulTransBAcc(*a, *bt, o, 0, m);
                      },
                      r.m, r.n,
                      [=](Tensor* o) {
                        simd::avx512::MatMulTransBAcc(*a, *bt, o, 0, m);
                      }});
    }
  }
  // Dot over a DD_200 batch's [7230×64] activations: GIN's ε gradient.
  {
    const int m = 7230, n = 64;
    auto x = std::make_shared<Tensor>(Tensor::RandomNormal(m, n, &rng));
    auto y = std::make_shared<Tensor>(Tensor::RandomNormal(m, n, &rng));
    rows.push_back({"dot",
                    "[" + std::to_string(m) + "x" + std::to_string(n) + "]",
                    2ll * m * n,
                    [x, y](Tensor* o) { (*o)[0] = kernels::Dot(*x, *y); },
                    [x, y](Tensor* o) { (*o)[0] = simd::Dot(*x, *y); }, 1, 1});
  }

  // Elementwise (axpy at optimizer scale) and the RFF feature map.
  {
    const int m = 2048, n = 64;
    auto x = std::make_shared<Tensor>(Tensor::RandomNormal(m, n, &rng));
    rows.push_back({"axpy", "[" + std::to_string(m) + "x" + std::to_string(n) +
                                "]",
                    2ll * m * n,
                    [x, m, n](Tensor* o) {
                      kernels::Axpy(-0.01f, *x, o, 0, m * n);
                    },
                    [x, m, n](Tensor* o) {
                      simd::Axpy(-0.01f, *x, o, 0, m * n);
                    },
                    m, n});
  }
  {
    const int n = 1280, d = 32, q = 5;
    auto z = std::make_shared<Tensor>(Tensor::RandomNormal(n, d, &rng));
    auto source_dim = std::make_shared<std::vector<int>>();
    auto omega = std::make_shared<std::vector<float>>();
    auto phase = std::make_shared<std::vector<float>>();
    for (int j = 0; j < d * q; ++j) {
      source_dim->push_back(j % d);
      omega->push_back(static_cast<float>(rng.Normal()));
      phase->push_back(static_cast<float>(rng.Normal()));
    }
    const float scale = std::sqrt(2.f);
    const int features = d * q;
    rows.push_back({"rff-map",
                    "[" + std::to_string(n) + "x" + std::to_string(d) + "] Q=" +
                        std::to_string(q),
                    // cos + mul per feature, counted as 2 flops.
                    2ll * n * features,
                    [=](Tensor* o) {
                      kernels::RffMap(*z, *source_dim, *omega, *phase, false,
                                      scale, o, 0, n);
                    },
                    [=](Tensor* o) {
                      simd::RffMap(*z, *source_dim, *omega, *phase, false,
                                   scale, o, 0, n);
                    },
                    n, features});
  }

  const bool has_avx512 = simd::avx512::Available();
  bool all_equal = true;
  for (const Row& row : rows) {
    // The columns this host can run, scalar first; each is checked
    // against the scalar output, then all are timed together.
    std::vector<std::function<void(Tensor*)>> columns = {row.scalar,
                                                         row.vector};
    if (row.avx512 && has_avx512) columns.push_back(row.avx512);
    bool equal = true;
    std::vector<std::function<void()>> timed;
    Tensor scalar_out(row.out_rows, row.out_cols);
    row.scalar(&scalar_out);
    for (const auto& column : columns) {
      Tensor out(row.out_rows, row.out_cols);
      column(&out);
      equal = equal && BitwiseEqual(scalar_out, out);
      timed.push_back([&row, &column] {
        Tensor o(row.out_rows, row.out_cols);
        column(&o);
      });
    }
    all_equal = all_equal && equal;
    const std::vector<double> s = TimeAlternating(timed, 5);
    const auto gflops = [&](double seconds) {
      return static_cast<double>(row.flops) / seconds / 1e9;
    };
    char wide[16];
    if (s.size() > 2) {
      std::snprintf(wide, sizeof(wide), "%.2f", gflops(s[2]));
    } else {
      std::snprintf(wide, sizeof(wide), "%s", row.avx512 ? "n/a" : "-");
    }
    std::printf("%-14s %-24s %12.2f %12.2f %12s %7.2fx %8s\n",
                row.name.c_str(), row.shape.c_str(), gflops(s[0]),
                gflops(s[1]), wide, s[0] / s[1], equal ? "OK" : "DIVERGED");
  }
  return CompareDropoutMask() && all_equal;
}

// ---------------------------------------------------------------------------
// Message-passing comparison: planned vs fused kernels, serial vs pooled.
// ---------------------------------------------------------------------------

/// One gather/scatter workload at a fixed feature width. The planned
/// variant scatters a pre-gathered [E, d] tensor over contiguous
/// destination segments; fused reads the [N, d] rows directly instead.
/// Returns false when any result diverges bitwise.
bool CompareMessagePassing(int threads, const std::string& json_path) {
  if (threads < 1) threads = 1;
  const int nodes = 25000;
  const int edges = 200000;
  const int cores = BenchOptions::HardwareConcurrency();
  std::printf(
      "Message passing over CSR segment plans\n"
      "N=%d nodes, E=%d edges, %d threads, hardware_concurrency=%d\n"
      "(speedup = serial / parallel wall-clock of the same kernel;\n"
      "bitwise = parallel equals serial, and fused equals planned)\n\n",
      nodes, edges, threads, cores);

  Rng rng(11);
  std::vector<int> src(static_cast<size_t>(edges));
  std::vector<int> dst(static_cast<size_t>(edges));
  for (int e = 0; e < edges; ++e) {
    src[static_cast<size_t>(e)] =
        static_cast<int>(rng.UniformInt(0, nodes - 1));
    dst[static_cast<size_t>(e)] =
        static_cast<int>(rng.UniformInt(0, nodes - 1));
  }
  const MessagePlan plan = MessagePlan::Build(src, dst, nodes);

  bool all_bitwise = true;
  std::string json_rows;
  std::printf("%-4s %-10s %14s %14s %9s %8s\n", "dim", "variant",
              "serial ms", "parallel ms", "speedup", "bitwise");
  // dim=1 matches attention-score segment sums ([E,1] tensors in GAT);
  // 16 and 64 are hidden widths.
  for (const int dim : {1, 16, 64}) {
    const Tensor h = Tensor::RandomNormal(nodes, dim, &rng);
    Tensor gathered(edges, dim);
    {
      ScopedBackendThreads scoped(1);
      GetBackend().GatherRows(h, src, &gathered);
    }
    struct Variant {
      const char* name;
      std::function<Tensor()> run;
    };
    const std::vector<Variant> variants = {
        {"planned",
         [&] {
           Tensor out(nodes, dim);
           GetBackend().ScatterAddRowsPlanned(gathered, plan.by_dst, &out);
           return out;
         }},
        {"fused",
         [&] {
           Tensor out(nodes, dim);
           GetBackend().GatherScatterAcc(h, plan.src_by_dst, plan.by_dst,
                                         &out);
           return out;
         }},
    };
    Tensor reference;
    for (const Variant& v : variants) {
      Tensor serial_out;
      double serial_s;
      {
        ScopedBackendThreads scoped(1);
        serial_out = v.run();
        serial_s = TimePerCall([&] { v.run(); });
      }
      Tensor parallel_out;
      double parallel_s;
      {
        ScopedBackendThreads scoped(threads);
        parallel_out = v.run();
        parallel_s = TimePerCall([&] { v.run(); });
      }
      // The first variant's serial output is the reference the others
      // must reproduce bit for bit.
      if (!reference.SameShape(serial_out)) reference = serial_out;
      const bool bitwise = BitwiseEqual(serial_out, parallel_out) &&
                           BitwiseEqual(reference, serial_out);
      all_bitwise = all_bitwise && bitwise;
      const double speedup = serial_s / parallel_s;
      std::printf("%-4d %-10s %14.3f %14.3f %8.2fx %8s\n", dim, v.name,
                  serial_s * 1e3, parallel_s * 1e3, speedup,
                  bitwise ? "OK" : "DIVERGED");
      if (!json_path.empty()) {
        if (!json_rows.empty()) json_rows += ",";
        json_rows += obs::JsonObjectWriter()
                         .Put("dim", dim)
                         .Put("variant", v.name)
                         .Put("nodes", nodes)
                         .Put("edges", edges)
                         .Put("threads", threads)
                         .Put("serial_ms", serial_s * 1e3)
                         .Put("parallel_ms", parallel_s * 1e3)
                         .Put("speedup", speedup)
                         .Put("bitwise", bitwise)
                         .Build();
      }
    }
  }
  if (!json_path.empty()) {
    const std::string report =
        obs::JsonObjectWriter()
            .Put("bench", "message_passing")
            .Put("nodes", nodes)
            .Put("edges", edges)
            .Put("threads", threads)
            .Put("hardware_concurrency", cores)
            .PutRaw("rows", "[" + json_rows + "]")
            .Build();
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", report.c_str());
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path.c_str());
    } else {
      std::printf("\nERROR: cannot write %s\n", json_path.c_str());
    }
  }
  return all_bitwise;
}

// ---------------------------------------------------------------------------
// google-benchmark micro-suite (run with --benchmark* flags).
// ---------------------------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Variable a = Variable::Constant(Tensor::RandomNormal(n, n, &rng));
  Variable b = Variable::Constant(Tensor::RandomNormal(n, n, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).value().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GatherScatter(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int edges = nodes * 8;
  const int dim = 64;
  Rng rng(2);
  Variable h = Variable::Constant(Tensor::RandomNormal(nodes, dim, &rng));
  std::vector<int> src(static_cast<size_t>(edges));
  std::vector<int> dst(static_cast<size_t>(edges));
  for (int e = 0; e < edges; ++e) {
    src[static_cast<size_t>(e)] =
        static_cast<int>(rng.UniformInt(0, nodes - 1));
    dst[static_cast<size_t>(e)] =
        static_cast<int>(rng.UniformInt(0, nodes - 1));
  }
  const auto plan = std::make_shared<const MessagePlan>(
      MessagePlan::Build(std::move(src), std::move(dst), nodes));
  for (auto _ : state) {
    Variable out = GatherScatter(h, plan);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{edges} * dim);
}
BENCHMARK(BM_GatherScatter)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_RffTransform(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = 64;
  Rng rng(3);
  RffConfig config;
  RffFeatureMap rff(dim, config, &rng);
  Tensor z = Tensor::RandomNormal(n, dim, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rff.Transform(z).data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * dim);
}
BENCHMARK(BM_RffTransform)->Arg(128)->Arg(512)->Arg(2048);

void BM_DecorrelationLoss(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = 64;
  Rng rng(4);
  RffConfig config;
  RffFeatureMap rff(dim, config, &rng);
  Tensor features = rff.Transform(Tensor::RandomNormal(n, dim, &rng));
  Variable w = Variable::Param(Tensor(n, 1, 1.f));
  for (auto _ : state) {
    Variable loss = DecorrelationLoss(features, rff.feature_source_dim(), w);
    loss.Backward();
    benchmark::DoNotOptimize(w.grad().data());
    w.ZeroGrad();
  }
}
BENCHMARK(BM_DecorrelationLoss)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_WeightOptimizerStep(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int dim = 32;
  Rng rng(5);
  RffConfig rff_config;
  RffFeatureMap rff(dim, rff_config, &rng);
  GlobalWeightBank bank =
      GlobalWeightBank::WithUniformGamma(1, batch, dim, 0.9f);
  Tensor z = Tensor::RandomNormal(batch, dim, &rng);
  bank.Update(z, Tensor(batch, 1, 1.f));
  WeightOptimizerConfig config;
  config.epochs_reweight = 1;  // One inner step per iteration.
  GraphWeightOptimizer optimizer(config);
  for (auto _ : state) {
    WeightOptimizerResult result = optimizer.Optimize(z, rff, &bank);
    benchmark::DoNotOptimize(result.weights.data());
  }
}
BENCHMARK(BM_WeightOptimizerStep)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
}  // namespace oodgnn

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark", 0) == 0) gbench = true;
  }
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  oodgnn::Flags flags(argc, argv);
  if (flags.Has("mp")) {
    return oodgnn::CompareMessagePassing(flags.GetThreads(4),
                                         flags.GetString("mp-json", ""))
               ? 0
               : 1;
  }
  if (flags.Has("simd")) return oodgnn::CompareSimd() ? 0 : 1;
  oodgnn::CompareBackends(flags.GetThreads(4));
  const bool tail_ok = oodgnn::CompareMatMulTail(flags.GetThreads(4));
  oodgnn::CompareBatchNormToLinear();
  return tail_ok ? 0 : 1;
}
