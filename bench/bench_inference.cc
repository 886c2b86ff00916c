// Benchmarks of the grad-free forward path, each with a bitwise gate.
//
// Prints two sections:
//   1. taped vs no-grad forward on a full eval batch — the measured
//      speedup from skipping tape construction in eval, plus a bitwise
//      check that both paths produce identical logits;
//   2. scalar vs SIMD dispatch on the full no-grad eval forward — wall
//      clock for both plus the bitwise check (the vector path must be
//      invisible except in speed; DESIGN.md §16).
//
// Serving through the InferenceEngine (queueing, batching, admission
// control, rollouts) is measured by perfbench's serve-tri-open
// workload (perfbench/README.md).
//
// Flags: --threads N   compute-backend pool size (default 4)
//        --smoke       small deterministic run that exits nonzero if
//                      either bitwise check fails — registered as the
//                      bench_inference_smoke ctest
//        --json PATH   also write the machine-readable report to PATH
//                      (scripts/run_bench_inference.sh wraps this into
//                      BENCH_inference.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/obs/json.h"
#include "src/tensor/backend.h"
#include "src/train/experiment.h"
#include "src/tensor/simd.h"
#include "src/tensor/variable.h"
#include "src/util/flags.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

/// Best-of-repetitions wall-clock of `fn`, in seconds per call.
/// Calibrates the iteration count so each repetition runs ~50 ms.
double TimePerCall(const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // Warm-up.
  int iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt >= 0.05 || iters >= (1 << 22)) break;
    iters *= 2;
  }
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt / iters < best) best = dt / iters;
  }
  return best;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/// Runs the bench; returns the number of failed bitwise gates — the
/// --smoke exit code.
int RunBench(const Flags& flags) {
  const bool smoke = flags.Has("smoke");
  const std::string json_path = flags.GetString("json", "");

  // Dataset + model at the paper's Triangles scale (scaled-down test
  // split: only eval graphs are forwarded). --smoke shrinks everything:
  // the run is a correctness gate, not a measurement.
  TrianglesConfig data_config;
  data_config.num_train = 64;
  data_config.num_valid = 16;
  data_config.num_test = smoke ? 24 : 128;
  GraphDataset dataset = MakeTrianglesDataset(data_config, 7);

  const Method method = Method::kGin;
  EncoderConfig encoder;
  encoder.feature_dim = dataset.feature_dim;
  encoder.hidden_dim = 64;
  encoder.num_layers = 3;

  Rng model_rng(19);
  GraphPredictionModel model(method, encoder, dataset.OutputDim(),
                             &model_rng);

  std::vector<const Graph*> eval_graphs;
  for (const size_t idx : dataset.test_idx) {
    eval_graphs.push_back(&dataset.graphs[idx]);
  }
  const GraphBatch eval_batch = GraphBatch::FromGraphs(eval_graphs);
  Rng eval_rng(23);

  const int cores = BenchOptions::HardwareConcurrency();
  std::printf("Inference-path benchmark: %s, %zu eval graphs, hidden=%d, "
              "layers=%d, backend threads=%d\n",
              MethodName(method), eval_graphs.size(), encoder.hidden_dim,
              encoder.num_layers, GetBackend().num_threads());
  std::printf("hardware_concurrency=%d\n\n", cores);

  // --- 1. taped vs no-grad forward -----------------------------------
  Tensor taped_logits =
      model.Predict(eval_batch, /*training=*/false, &eval_rng).value();
  Tensor nograd_logits;
  {
    NoGradGuard no_grad;
    nograd_logits =
        model.Predict(eval_batch, /*training=*/false, &eval_rng).value();
  }
  const bool nograd_bitwise = BitwiseEqual(taped_logits, nograd_logits);
  const double taped_s = TimePerCall(
      [&] { model.Predict(eval_batch, /*training=*/false, &eval_rng); });
  const double nograd_s = TimePerCall([&] {
    NoGradGuard no_grad;
    model.Predict(eval_batch, /*training=*/false, &eval_rng);
  });
  std::printf("eval forward (full batch, %zu graphs)\n", eval_graphs.size());
  std::printf("  taped:   %9.3f ms/call\n", taped_s * 1e3);
  std::printf("  no-grad: %9.3f ms/call   speedup %.2fx   bitwise %s\n\n",
              nograd_s * 1e3, taped_s / nograd_s,
              nograd_bitwise ? "OK" : "DIVERGED");

  // --- 2. scalar vs SIMD dispatch on the no-grad eval forward --------
  double scalar_fwd_s;
  double simd_fwd_s;
  bool simd_bitwise;
  {
    NoGradGuard no_grad;
    Tensor scalar_out, simd_out;
    {
      simd::ScopedSimdEnabled off(false);
      scalar_out =
          model.Predict(eval_batch, /*training=*/false, &eval_rng).value();
      scalar_fwd_s = TimePerCall(
          [&] { model.Predict(eval_batch, /*training=*/false, &eval_rng); });
    }
    {
      simd::ScopedSimdEnabled on(true);
      simd_out =
          model.Predict(eval_batch, /*training=*/false, &eval_rng).value();
      simd_fwd_s = TimePerCall(
          [&] { model.Predict(eval_batch, /*training=*/false, &eval_rng); });
    }
    simd_bitwise = BitwiseEqual(scalar_out, simd_out);
  }
  std::printf("simd dispatch (no-grad eval forward, isa=%s)\n",
              simd::IsaName());
  std::printf("  scalar:  %9.3f ms/call\n", scalar_fwd_s * 1e3);
  std::printf("  simd:    %9.3f ms/call   speedup %.2fx   bitwise %s%s\n\n",
              simd_fwd_s * 1e3, scalar_fwd_s / simd_fwd_s,
              simd_bitwise ? "OK" : "DIVERGED",
              simd::Available() ? "" : "  (no vector ISA: scalar==scalar)");

  if (!json_path.empty()) {
    const std::string report =
        obs::JsonObjectWriter()
            .Put("bench", "inference")
            .Put("method", MethodName(method))
            .Put("eval_graphs", static_cast<std::int64_t>(eval_graphs.size()))
            .Put("hidden_dim", encoder.hidden_dim)
            .Put("num_layers", encoder.num_layers)
            .Put("threads", GetBackend().num_threads())
            .Put("hardware_concurrency", cores)
            .Put("taped_ms", taped_s * 1e3)
            .Put("nograd_ms", nograd_s * 1e3)
            .Put("nograd_speedup", taped_s / nograd_s)
            .PutRaw("simd",
                    obs::JsonObjectWriter()
                        .Put("isa", simd::IsaName())
                        .Put("available", simd::Available())
                        .Put("scalar_forward_ms", scalar_fwd_s * 1e3)
                        .Put("simd_forward_ms", simd_fwd_s * 1e3)
                        .Put("speedup", scalar_fwd_s / simd_fwd_s)
                        .Put("bitwise", simd_bitwise)
                        .Build())
            .Put("bitwise_ok", nograd_bitwise && simd_bitwise)
            .Build();
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", report.c_str());
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("ERROR: cannot write %s\n", json_path.c_str());
    }
  }

  // Correctness gates — the --smoke contract (always evaluated; only
  // the PASS/FAIL table is smoke-gated so a plain run stays a report).
  int failures = 0;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) ++failures;
    if (smoke) std::printf("smoke %-32s %s\n", what, ok ? "PASS" : "FAIL");
  };
  gate(nograd_bitwise, "nograd-bitwise");
  gate(simd_bitwise, "simd-bitwise");
  if (smoke && failures > 0) std::printf("smoke: %d FAILURES\n", failures);
  return failures;
}

}  // namespace
}  // namespace oodgnn

int main(int argc, char** argv) {
  oodgnn::Flags flags(argc, argv);
  oodgnn::SetBackendThreads(flags.GetThreads(4));
  return oodgnn::RunBench(flags);
}
