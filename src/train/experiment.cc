#include "src/train/experiment.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "src/obs/exporter.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/util/check.h"

namespace oodgnn {
namespace {

void PrintProfileReport() {
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().GetSnapshot();
  if (!metrics.empty()) {
    std::printf("\n=== Profile: metrics (--profile) ===\n%s",
                metrics.ToTableString().c_str());
  }
  std::fflush(stdout);
}

/// Prints the global registry's table (phase histograms and kernel
/// counters) once, when the binary exits — every benchmark gets a
/// final profile report for free.
void RegisterProfileReportAtExit() {
  static std::once_flag once;
  std::call_once(once, [] { std::atexit(PrintProfileReport); });
}

}  // namespace

int BenchOptions::HardwareConcurrency() {
  static const int cores = [] {
    unsigned probed = std::thread::hardware_concurrency();
    if (probed == 0) {
      // The standard allows a 0 "not computable" answer; fall back to
      // the online-processor count before giving up.
      const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
      probed = online > 0 ? static_cast<unsigned>(online) : 1;
    }
    return static_cast<int>(probed);
  }();
  return cores;
}

MethodScores RunSeeds(Method method, const GraphDataset& dataset,
                      const TrainConfig& base_config, int num_seeds) {
  OODGNN_CHECK_GT(num_seeds, 0);
  MethodScores scores;
  for (int s = 0; s < num_seeds; ++s) {
    TrainConfig config = base_config;
    config.encoder.readout = RecommendedReadout(dataset.name);
    config.seed = base_config.seed + static_cast<uint64_t>(s);
    TrainResult result = TrainAndEvaluate(method, dataset, config);
    scores.train.push_back(result.train_metric);
    scores.valid.push_back(result.valid_metric);
    scores.test.push_back(result.test_metric);
    if (result.test2_metric >= 0) scores.test2.push_back(result.test2_metric);
    scores.last_run = std::move(result);
  }
  return scores;
}

std::string FormatCell(const std::vector<double>& values, bool percent) {
  if (values.empty()) return "-";
  std::vector<double> scaled = values;
  if (percent) {
    for (double& v : scaled) v *= 100.0;
  }
  double mean = 0.0;
  for (double v : scaled) mean += v;
  mean /= static_cast<double>(scaled.size());
  double var = 0.0;
  for (double v : scaled) var += (v - mean) * (v - mean);
  const double stddev =
      scaled.size() > 1
          ? std::sqrt(var / static_cast<double>(scaled.size() - 1))
          : 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), percent ? "%.1f±%.1f" : "%.2f±%.2f", mean,
                stddev);
  return buf;
}

ReadoutKind RecommendedReadout(const std::string& dataset_name) {
  if (dataset_name == "TRIANGLES" || dataset_name == "COLLAB" ||
      dataset_name == "PROTEINS_25" || dataset_name == "DD_200" ||
      dataset_name == "DD_300") {
    return ReadoutKind::kSum;
  }
  return ReadoutKind::kMean;
}

void ApplyFastDefaults(const Flags& flags, int seeds, int epochs,
                       double scale, BenchOptions* options) {
  if (options->full) return;
  if (!flags.Has("seeds")) options->seeds = seeds;
  if (!flags.Has("epochs")) options->train.epochs = epochs;
  if (!flags.Has("scale")) options->data_scale = scale;
}

BenchOptions BenchOptions::FromFlags(const Flags& flags) {
  BenchOptions options;
  options.full = flags.GetBool("full", false);
  if (options.full) {
    // Paper-leaning settings: bigger data, more seeds, longer training.
    options.seeds = 5;
    options.data_scale = 3.0;
    options.train.epochs = 60;
    options.train.encoder.hidden_dim = 64;
  } else {
    options.seeds = 2;
    options.data_scale = 1.0;
    options.train.epochs = 20;
    options.train.encoder.hidden_dim = 32;
  }
  options.train.batch_size = 64;
  options.train.lr = 1e-3f;
  options.train.encoder.num_layers = 3;
  options.train.encoder.dropout = 0.3f;

  options.seeds = flags.GetInt("seeds", options.seeds);
  options.data_scale = flags.GetDouble("scale", options.data_scale);
  options.train.epochs = flags.GetInt("epochs", options.train.epochs);
  options.train.batch_size = flags.GetInt("batch", options.train.batch_size);
  options.train.lr =
      static_cast<float>(flags.GetDouble("lr", options.train.lr));
  options.train.encoder.hidden_dim =
      flags.GetInt("hidden", options.train.encoder.hidden_dim);
  options.train.encoder.num_layers =
      flags.GetInt("layers", options.train.encoder.num_layers);
  options.train.verbose = flags.GetBool("verbose", false);
  // Eval cadence: evaluate every N epochs (final epoch always). The
  // training trajectory is cadence-invariant, so this is a pure
  // wall-clock knob for long runs.
  options.train.eval_every =
      flags.GetInt("eval-every", options.train.eval_every);
  // Fault tolerance: periodic full-state snapshots plus auto-resume
  // (src/train/checkpoint.h). Snapshot files are keyed by (dataset,
  // method, seed), so multi-seed sweeps resume per run.
  options.train.checkpoint_every = flags.GetInt("checkpoint-every", 0);
  options.train.checkpoint_dir =
      flags.GetString("checkpoint-dir", options.train.checkpoint_dir);
  options.train.resume = flags.GetBool("resume", false);
  // Shared --threads handling: every benchmark binary picks its compute
  // backend here (serial for 1, pooled workers otherwise).
  SetBackendThreads(flags.GetThreads(1));
  // Captured once so every bench JSON emitter records the same, real
  // value instead of re-probing (and so a probe returning 0 cannot
  // leak into committed benchmark artifacts).
  options.hardware_concurrency = HardwareConcurrency();
  // Shared observability handling: --profile turns on the per-kernel
  // counters (also reachable via OODGNN_PROFILE) and schedules the
  // final profile table; --trace-json=<path> opens the JSONL run
  // journal the trainer writes per-epoch records to.
  if (flags.GetBool("profile", false)) obs::SetProfilingEnabled(true);
  if (obs::ProfilingEnabled()) RegisterProfileReportAtExit();
  const std::string trace_json = flags.GetString("trace-json", "");
  if (!trace_json.empty()) obs::OpenGlobalJournal(trace_json);
  // Shared metrics handling: --metrics-out=<prefix> streams the global
  // registry to <prefix>.prom / <prefix>.jsonl on a background thread;
  // --metrics-json=<path> writes one final snapshot at exit.
  const std::string metrics_out = flags.GetMetricsOut();
  if (!metrics_out.empty()) {
    obs::StartGlobalExporter(metrics_out, flags.GetMetricsIntervalMs());
  }
  const std::string metrics_json = flags.GetString("metrics-json", "");
  if (!metrics_json.empty()) obs::RegisterMetricsJsonDumpAtExit(metrics_json);
  return options;
}

}  // namespace oodgnn
