#ifndef OODGNN_OBS_EXPORTER_H_
#define OODGNN_OBS_EXPORTER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/metrics.h"

namespace oodgnn {
namespace obs {

/// Renders a snapshot in the Prometheus text exposition format.
/// Metric names swap '/' for '_' and gain an "oodgnn_" prefix
/// ("serve/e2e/us" → "oodgnn_serve_e2e_us"); counters and gauges emit
/// one sample each, histograms emit a summary: quantile-labelled
/// samples for p50/p95/p99 plus _sum, _count, _min and _max series.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Writes one JSON object — MetricsSnapshot::ToJson plus a "ts_us"
/// wall-clock timestamp — to `path` atomically (tmp + rename). Returns
/// false on I/O failure. Backs the --metrics-json at-exit dump; the
/// exporter's JSONL stream appends the same objects line by line.
bool WriteMetricsJson(const std::string& path, const MetricsRegistry& registry);

struct ExporterOptions {
  /// Output basename: the exporter overwrites <prefix>.prom on every
  /// tick (Prometheus scrape target) and appends one JSON line per
  /// tick to <prefix>.jsonl (offline timeline).
  std::string output_prefix;
  int interval_ms = 1000;
  /// Registry to snapshot; null means MetricsRegistry::Global().
  MetricsRegistry* registry = nullptr;
};

/// Background metrics publisher. A single thread wakes every
/// `interval_ms`, snapshots the registry, rewrites the .prom file
/// atomically and appends to the .jsonl stream. Stop() (and the
/// destructor) wake the thread immediately and flush one final export
/// so short-lived processes never lose their last interval.
class MetricsExporter {
 public:
  explicit MetricsExporter(const ExporterOptions& options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Synchronously exports one snapshot (also called by the background
  /// thread; safe to call concurrently with it).
  void ExportNow();

  /// Stops the background thread after one final export. Idempotent.
  void Stop();

 private:
  void Loop();

  const ExporterOptions options_;
  MetricsRegistry* const registry_;  // resolved, never null

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by mu_

  std::mutex write_mu_;  // serializes file writes across callers

  std::thread thread_;
};

/// Process-wide exporter used by the --metrics-out flag and the
/// OODGNN_METRICS_OUT environment variable. Starting while one is
/// already running restarts it with the new options; Stop flushes and
/// joins. An atexit hook stops the exporter on normal process exit.
void StartGlobalExporter(const std::string& output_prefix, int interval_ms);
void StopGlobalExporter();

/// Schedules one WriteMetricsJson(path, Global()) dump at process exit
/// — the uniform --metrics-json behavior shared by every bench/table
/// binary. A later call replaces the destination; the dump runs once.
void RegisterMetricsJsonDumpAtExit(const std::string& path);

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_EXPORTER_H_
