// Benchmarks of the grad-free inference path (src/serve).
//
// Prints four sections:
//   1. taped vs no-grad forward on a full eval batch — the measured
//      speedup from skipping tape construction in eval, plus a bitwise
//      check that both paths produce identical logits;
//   2. single-graph latency percentiles (p50/p90/p99) through the
//      InferenceEngine versus a direct no-grad forward;
//   3. batched throughput (graphs/sec): a serial one-graph-at-a-time
//      loop versus the engine coalescing concurrent submissions into
//      dynamic micro-batches, with every engine output checked bitwise
//      against the tape-based reference;
//   4. scalar vs SIMD dispatch on the full no-grad eval forward — wall
//      clock for both plus the bitwise check (the vector path must be
//      invisible except in speed; DESIGN.md §16).
//
// Flags: --threads N   compute-backend pool size (default 4)
//        --workers N   engine worker count for the pooled run (default 4)
//        --batch N     engine micro-batch size cutoff (default 32)
//        --wait-us N   engine batching window in microseconds (default 200)
//        --requests N  total graphs submitted in the throughput run
//                      (default 2000)
//        --smoke       small deterministic run that exits nonzero if any
//                      bitwise check fails — registered as the
//                      bench_inference_smoke ctest
//        --json PATH   also write the machine-readable report to PATH
//                      (scripts/run_bench_inference.sh wraps this into
//                      BENCH_inference.json)
//        --metrics-out PREFIX   stream the global metrics registry to
//                      PREFIX.prom / PREFIX.jsonl while the bench runs
//        --metrics-json PATH    final global-registry snapshot at exit

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/obs/exporter.h"
#include "src/obs/json.h"
#include "src/serve/inference.h"
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

double Percentile(const std::vector<double>& sorted, double p) {
  const size_t idx = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct LatencyReport {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// Sorted single-graph Predict latencies through a one-worker,
/// batch-of-one engine (queue handoff + one forward per sample).
LatencyReport MeasureLatency(serve::InferenceEngine* engine,
                             const std::vector<const Graph*>& graphs,
                             int samples) {
  engine->Predict(*graphs[0]);  // Warm-up (worker spin-up, arena growth).
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Graph& g = *graphs[static_cast<size_t>(i) % graphs.size()];
    const auto t0 = std::chrono::steady_clock::now();
    engine->Predict(g);
    latencies_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  LatencyReport report;
  report.p50_us = Percentile(latencies_us, 50);
  report.p90_us = Percentile(latencies_us, 90);
  report.p99_us = Percentile(latencies_us, 99);
  return report;
}

struct ThroughputReport {
  double seconds = 0;
  bool bitwise_ok = true;
  serve::InferenceStats stats;
};

/// `total_requests` graphs through `engine` from 4 submitter threads,
/// every returned row checked bitwise against `reference`.
ThroughputReport MeasureThroughput(serve::InferenceEngine* engine,
                                   const std::vector<const Graph*>& graphs,
                                   const std::vector<Tensor>& reference,
                                   int total_requests) {
  engine->Predict(*graphs[0]);  // Warm-up off the clock.
  ThroughputReport report;
  const int submitters = 4;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::pair<size_t, std::future<Tensor>>>> futures(
      static_cast<size_t>(submitters));
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      for (int i = s; i < total_requests; i += submitters) {
        const size_t gi = static_cast<size_t>(i) % graphs.size();
        futures[static_cast<size_t>(s)].emplace_back(
            gi, engine->Submit(*graphs[gi]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& shard : futures) {
    for (auto& [gi, future] : shard) {
      if (!BitwiseEqual(future.get(), reference[gi])) {
        report.bitwise_ok = false;
      }
    }
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.stats = engine->stats();
  return report;
}

/// Runs the bench; returns the number of failed bitwise gates — the
/// --smoke exit code.
int RunBench(const Flags& flags) {
  const bool smoke = flags.Has("smoke");
  const int workers = flags.GetInt("workers", 4);
  const int max_batch = flags.GetInt("batch", 32);
  const int wait_us = flags.GetInt("wait-us", 200);
  const int total_requests = flags.GetInt("requests", smoke ? 120 : 2000);
  const int latency_samples = smoke ? 40 : 400;
  const std::string json_path = flags.GetString("json", "");

  // Dataset + model at the paper's Triangles scale (scaled-down test
  // split: the serving path only touches eval graphs). --smoke shrinks
  // everything: the run is a correctness gate, not a measurement.
  TrianglesConfig data_config;
  data_config.num_train = 64;
  data_config.num_valid = 16;
  data_config.num_test = smoke ? 24 : 128;
  GraphDataset dataset = MakeTrianglesDataset(data_config, 7);

  serve::ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder.feature_dim = dataset.feature_dim;
  spec.encoder.hidden_dim = 64;
  spec.encoder.num_layers = 3;
  spec.output_dim = dataset.OutputDim();

  Rng model_rng(19);
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim,
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
              MethodName(spec.method), eval_graphs.size(),
              spec.encoder.hidden_dim, spec.encoder.num_layers,
              GetBackend().num_threads());
  std::printf("hardware_concurrency=%d%s\n\n", cores,
              cores <= 1 ? "  (single core: pooled speedup <= 1 is expected "
                           "here; bitwise identity is the portable check)"
                         : "");

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

  // --- 4. scalar vs SIMD dispatch on the no-grad eval forward --------
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

  // --- 2. single-graph latency percentiles -------------------------
  // One worker, batch size 1, no batching window: each Predict measures
  // queue handoff + one forward.
  LatencyReport eager_latency;
  double direct_us = 0;
  {
    const int samples = latency_samples;
    serve::InferenceOptions options;
    options.num_workers = 1;
    options.max_batch_graphs = 1;
    options.max_batch_wait_us = 0;

    serve::InferenceEngine eager(spec, options);
    eager.SyncFrom(model);
    eager_latency = MeasureLatency(&eager, eval_graphs, samples);

    const Graph& probe = *eval_graphs[0];
    const GraphBatch probe_batch = GraphBatch::FromGraphs({&probe});
    const double direct_s = TimePerCall([&] {
      NoGradGuard no_grad;
      model.Predict(probe_batch, /*training=*/false, &eval_rng);
    });
    direct_us = direct_s * 1e6;
    std::printf("single-graph latency (engine, %d samples)\n", samples);
    std::printf("  engine:   p50 %8.1f us   p90 %8.1f us   p99 %8.1f us   "
                "(direct no-grad forward: %.1f us)\n\n",
                eager_latency.p50_us, eager_latency.p90_us,
                eager_latency.p99_us, direct_us);
  }

  // --- 3. batched throughput: serial loop vs pooled engine -----------
  // Reference rows for the bitwise check, via the tape-based path.
  std::vector<Tensor> reference;
  for (const Graph* g : eval_graphs) {
    reference.push_back(
        model.Predict(GraphBatch::FromGraphs({g}), false, &eval_rng).value());
  }

  double serial_s;
  {
    const auto t0 = std::chrono::steady_clock::now();
    NoGradGuard no_grad;
    for (int i = 0; i < total_requests; ++i) {
      const Graph* g = eval_graphs[static_cast<size_t>(i) % eval_graphs.size()];
      model.Predict(GraphBatch::FromGraphs({g}), false, &eval_rng);
    }
    serial_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  serve::InferenceOptions options;
  options.num_workers = workers;
  options.max_batch_graphs = max_batch;
  options.max_batch_wait_us = wait_us;

  serve::InferenceEngine eager_engine(spec, options);
  eager_engine.SyncFrom(model);
  const ThroughputReport eager_tp =
      MeasureThroughput(&eager_engine, eval_graphs, reference, total_requests);


  std::printf("batched throughput (%d requests)\n", total_requests);
  std::printf("  serial loop:     %10.1f graphs/sec\n",
              total_requests / serial_s);
  std::printf("  eager engine:    %10.1f graphs/sec   speedup %.2fx   "
              "bitwise %s\n",
              total_requests / eager_tp.seconds, serial_s / eager_tp.seconds,
              eager_tp.bitwise_ok ? "OK" : "DIVERGED");
  std::printf("  engine: %d workers, batch<=%d, wait %d us, "
              "%lld batches (%.1f graphs/batch avg)\n\n",
              workers, max_batch, wait_us,
              static_cast<long long>(eager_tp.stats.batches),
              eager_tp.stats.batches > 0
                  ? static_cast<double>(eager_tp.stats.requests) /
                        static_cast<double>(eager_tp.stats.batches)
                  : 0.0);

  if (!json_path.empty()) {
    const bool bitwise_ok = nograd_bitwise && eager_tp.bitwise_ok;
    const std::string report =
        obs::JsonObjectWriter()
            .Put("bench", "inference")
            .Put("method", MethodName(spec.method))
            .Put("eval_graphs", static_cast<std::int64_t>(eval_graphs.size()))
            .Put("hidden_dim", spec.encoder.hidden_dim)
            .Put("num_layers", spec.encoder.num_layers)
            .Put("threads", GetBackend().num_threads())
            .Put("hardware_concurrency", cores)
            .Put("workers", workers)
            .Put("max_batch", max_batch)
            .Put("wait_us", wait_us)
            .Put("requests", total_requests)
            .Put("taped_ms", taped_s * 1e3)
            .Put("nograd_ms", nograd_s * 1e3)
            .Put("nograd_speedup", taped_s / nograd_s)
            .PutRaw("latency_us",
                    obs::JsonObjectWriter()
                        .Put("direct", direct_us)
                        .Put("eager_p50", eager_latency.p50_us)
                        .Put("eager_p90", eager_latency.p90_us)
                        .Put("eager_p99", eager_latency.p99_us)
                        .Build())
            .PutRaw("throughput_gps",
                    obs::JsonObjectWriter()
                        .Put("serial", total_requests / serial_s)
                        .Put("eager", total_requests / eager_tp.seconds)
                        .Build())
            .PutRaw("simd",
                    obs::JsonObjectWriter()
                        .Put("isa", simd::IsaName())
                        .Put("available", simd::Available())
                        .Put("scalar_forward_ms", scalar_fwd_s * 1e3)
                        .Put("simd_forward_ms", simd_fwd_s * 1e3)
                        .Put("speedup", scalar_fwd_s / simd_fwd_s)
                        .Put("bitwise", simd_bitwise)
                        .Build())
            .Put("bitwise_ok", bitwise_ok)
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
  gate(eager_tp.bitwise_ok, "eager-engine-bitwise");
  if (smoke && failures > 0) std::printf("smoke: %d FAILURES\n", failures);
  return failures;
}

}  // namespace
}  // namespace oodgnn

int main(int argc, char** argv) {
  oodgnn::Flags flags(argc, argv);
  oodgnn::SetBackendThreads(flags.GetThreads(4));
  // Uniform observability flags (same surface as the table binaries).
  const std::string metrics_out = flags.GetMetricsOut();
  if (!metrics_out.empty()) {
    oodgnn::obs::StartGlobalExporter(metrics_out,
                                     flags.GetMetricsIntervalMs());
  }
  const std::string metrics_json = flags.GetString("metrics-json", "");
  if (!metrics_json.empty()) {
    oodgnn::obs::RegisterMetricsJsonDumpAtExit(metrics_json);
  }
  return oodgnn::RunBench(flags);
}
