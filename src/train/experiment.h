#ifndef OODGNN_TRAIN_EXPERIMENT_H_
#define OODGNN_TRAIN_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/train/trainer.h"
#include "src/util/flags.h"

namespace oodgnn {

/// Per-split metric samples across repeated seeds.
struct MethodScores {
  std::vector<double> train;
  std::vector<double> valid;
  std::vector<double> test;
  std::vector<double> test2;
  /// The last run's full TrainResult (loss curves, weights, params).
  TrainResult last_run;
};

/// Trains `method` on `dataset` for `num_seeds` seeds (seed, seed+1, …)
/// and collects the metrics of each run. The encoder readout is set to
/// RecommendedReadout(dataset.name), overriding base_config.
MethodScores RunSeeds(Method method, const GraphDataset& dataset,
                      const TrainConfig& base_config, int num_seeds);

/// Formats seeds' metrics as the paper's "mean±std" cell. With
/// `percent`, values are scaled ×100 and printed with 1 decimal;
/// otherwise printed with 2 decimals (RMSE-style).
std::string FormatCell(const std::vector<double>& values, bool percent);

/// Shared command-line handling for the table/figure benchmark
/// binaries: `--full` switches to paper-scale settings, `--seeds`,
/// `--epochs`, `--scale`, `--hidden`, `--layers`, `--batch`,
/// `--eval-every` override individual knobs. Observability: `--profile`
/// enables the per-kernel counters (src/obs) and prints the global
/// metrics table at exit; `--trace-json=<path>` writes the
/// per-epoch JSONL run journal; `--metrics-out=<prefix>` starts the
/// background exporter publishing <prefix>.prom / <prefix>.jsonl every
/// `--metrics-interval-ms` (default 1000, also reachable via
/// OODGNN_METRICS_OUT / OODGNN_METRICS_INTERVAL_MS); and
/// `--metrics-json=<path>` dumps one final registry snapshot as JSON
/// when the binary exits.
/// Fault tolerance: `--checkpoint-every=N` snapshots the full training
/// state every N epochs into `--checkpoint-dir` (default "checkpoints")
/// and `--resume` restores a compatible snapshot before training
/// (src/train/checkpoint.h).
struct BenchOptions {
  int seeds = 2;
  double data_scale = 1.0;
  bool full = false;
  TrainConfig train;

  /// Host logical-CPU count, captured once at flag-parse time and
  /// reused by every bench JSON emitter (std::thread's probe can
  /// legally return 0 — normalized to 1 here so the recorded value is
  /// always meaningful).
  int hardware_concurrency = 1;

  /// Parses flags, applying `--full` defaults first and explicit
  /// overrides second.
  static BenchOptions FromFlags(const Flags& flags);

  /// The process-wide logical-CPU count backing the field above:
  /// probed exactly once (std::thread::hardware_concurrency, falling
  /// back to sysconf when the probe legally returns 0, floored at 1).
  /// Bench binaries that bypass FromFlags call this directly so every
  /// committed BENCH_*.json records the same real value.
  static int HardwareConcurrency();
};

/// Applies a benchmark binary's own fast-mode defaults: each value is
/// used only when --full is absent AND the corresponding flag was not
/// given explicitly.
void ApplyFastDefaults(const Flags& flags, int seeds, int epochs,
                       double scale, BenchOptions* options);

/// Readout convention per benchmark family: sum pooling for the
/// TU-style size-shift datasets (the GIN paper's convention — and the
/// channel through which the size↔label spurious correlation reaches
/// the representation), mean pooling for the OGB molecule datasets and
/// the superpixel graphs (the OGB convention).
ReadoutKind RecommendedReadout(const std::string& dataset_name);

}  // namespace oodgnn

#endif  // OODGNN_TRAIN_EXPERIMENT_H_
