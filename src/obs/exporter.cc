#include "src/obs/exporter.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

#include "src/obs/json.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"

namespace oodgnn {
namespace obs {
namespace {

/// Prometheus metric name: '/' and any other illegal character become
/// '_', with an "oodgnn_" namespace prefix.
std::string PrometheusName(const std::string& name) {
  std::string out = "oodgnn_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendSample(std::string* out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(name);
  out->push_back(' ');
  out->append(buf);
  out->push_back('\n');
}

/// Microseconds since the Unix epoch (wall clock — exporter timestamps
/// must be meaningful across processes, unlike the monotonic NowMicros).
std::int64_t WallClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string SnapshotJsonLine(const MetricsSnapshot& snapshot) {
  return JsonObjectWriter()
      .Put("ts_us", WallClockMicros())
      .PutRaw("metrics", snapshot.ToJson())
      .Build();
}

/// Writes `content` to `path` via a temporary file and rename, so a
/// concurrent reader (Prometheus scraping the file) never sees a
/// partial write. A failed write or rename removes the temp file and
/// leaves the last good `path` in place.
bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (WriteStringToFile(tmp, content) &&
      std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    out.append("# TYPE " + prom + " counter\n");
    AppendSample(&out, prom, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out.append("# TYPE " + prom + " gauge\n");
    AppendSample(&out, prom, value);
  }
  for (const auto& [name, s] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    out.append("# TYPE " + prom + " summary\n");
    AppendSample(&out, prom + "{quantile=\"0.5\"}", s.p50);
    AppendSample(&out, prom + "{quantile=\"0.95\"}", s.p95);
    AppendSample(&out, prom + "{quantile=\"0.99\"}", s.p99);
    AppendSample(&out, prom + "_sum", s.sum);
    AppendSample(&out, prom + "_count", static_cast<double>(s.count));
    out.append("# TYPE " + prom + "_min gauge\n");
    AppendSample(&out, prom + "_min", s.min);
    out.append("# TYPE " + prom + "_max gauge\n");
    AppendSample(&out, prom + "_max", s.max);
  }
  return out;
}

bool WriteMetricsJson(const std::string& path,
                      const MetricsRegistry& registry) {
  return WriteFileAtomic(path, SnapshotJsonLine(registry.GetSnapshot()) + "\n");
}

MetricsExporter::MetricsExporter(const ExporterOptions& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &MetricsRegistry::Global()) {
  OODGNN_CHECK(!options_.output_prefix.empty())
      << "MetricsExporter requires a non-empty output_prefix";
  OODGNN_CHECK_GE(options_.interval_ms, 1);
  thread_ = std::thread([this] { Loop(); });
}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::ExportNow() {
  const MetricsSnapshot snapshot = registry_->GetSnapshot();
  const std::string prom_text = ToPrometheusText(snapshot);
  const std::string json_line = SnapshotJsonLine(snapshot);
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!WriteFileAtomic(options_.output_prefix + ".prom", prom_text)) {
    OODGNN_LOG_EVERY_N(Warning, 60)
        << "metrics exporter: cannot write " << options_.output_prefix
        << ".prom";
  }
  std::ofstream jsonl(options_.output_prefix + ".jsonl", std::ios::app);
  if (jsonl) {
    jsonl << json_line << "\n";
  } else {
    OODGNN_LOG_EVERY_N(Warning, 60)
        << "metrics exporter: cannot append to " << options_.output_prefix
        << ".jsonl";
  }
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_requested_ && !thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsExporter::Loop() {
  bool stopping = false;
  while (!stopping) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(options_.interval_ms);
      cv_.wait_until(lock, deadline, [this] { return stop_requested_; });
      stopping = stop_requested_;
    }
    ExportNow();  // on stop this is the final flush
  }
}

namespace {

std::mutex global_exporter_mu;
std::unique_ptr<MetricsExporter>& GlobalExporterSlot() {
  static std::unique_ptr<MetricsExporter>* slot =
      new std::unique_ptr<MetricsExporter>();
  return *slot;
}

}  // namespace

void StartGlobalExporter(const std::string& output_prefix, int interval_ms) {
  std::lock_guard<std::mutex> lock(global_exporter_mu);
  auto& slot = GlobalExporterSlot();
  slot.reset();  // stop + flush any previous exporter first
  ExporterOptions options;
  options.output_prefix = output_prefix;
  options.interval_ms = interval_ms;
  slot = std::make_unique<MetricsExporter>(options);
  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit([] { StopGlobalExporter(); });
  }
  OODGNN_LOG(Info) << "metrics exporter: writing " << output_prefix
                   << ".prom / .jsonl every " << interval_ms << " ms";
}

void StopGlobalExporter() {
  std::lock_guard<std::mutex> lock(global_exporter_mu);
  GlobalExporterSlot().reset();
}

namespace {

/// atexit takes a capture-free function pointer, so the --metrics-json
/// destination lives in this (leaked, exit-safe) slot.
std::string& MetricsJsonPath() {
  static std::string* path = new std::string();
  return *path;
}

void DumpMetricsJsonAtExit() {
  if (!WriteMetricsJson(MetricsJsonPath(), MetricsRegistry::Global())) {
    OODGNN_LOG(Warning) << "--metrics-json: cannot write "
                        << MetricsJsonPath();
  }
}

}  // namespace

void RegisterMetricsJsonDumpAtExit(const std::string& path) {
  MetricsJsonPath() = path;
  static std::once_flag once;
  std::call_once(once, [] { std::atexit(DumpMetricsJsonAtExit); });
}

}  // namespace obs
}  // namespace oodgnn
