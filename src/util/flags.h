#ifndef OODGNN_UTIL_FLAGS_H_
#define OODGNN_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace oodgnn {

/// One parsed `--tenant-quota` entry (see Flags::GetTenantQuotas).
/// Mirrors serve::TenantQuotaSpec without depending on src/serve.
struct TenantQuotaFlag {
  std::string tenant;
  double tokens_per_sec = 0.0;
  double burst = 1.0;
};

/// Minimal command-line flag parser for the benchmark and example
/// binaries. Accepts "--name=value", "--name value" and boolean
/// "--name" forms; everything else is collected as a positional
/// argument.
class Flags {
 public:
  /// Parses argv. Aborts on a malformed flag (e.g. "--=x").
  Flags(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Typed getters returning `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int GetInt(const std::string& name, int fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Worker-thread count for the compute backend: the `--threads` flag
  /// if given, else the OODGNN_THREADS environment variable, else
  /// `fallback`. Pass the result to SetBackendThreads()
  /// (src/tensor/backend.h); values <= 1 select the serial backend.
  int GetThreads(int fallback = 1) const;

  /// Metrics-exporter output prefix: the `--metrics-out` flag if
  /// given, else the OODGNN_METRICS_OUT environment variable, else
  /// `fallback` (empty means "exporter off"). Pass the result to
  /// obs::StartGlobalExporter (src/obs/exporter.h).
  std::string GetMetricsOut(const std::string& fallback = "") const;

  /// Exporter tick interval: the `--metrics-interval-ms` flag if
  /// given, else the OODGNN_METRICS_INTERVAL_MS environment variable,
  /// else `fallback`.
  int GetMetricsIntervalMs(int fallback = 1000) const;

  // Serving-policy flags (src/serve/scheduler.h), shared by the load
  // generator and the serving examples so every binary exposes the
  // same admission-control surface.

  /// Per-worker in-flight slot budget for continuous batching: the
  /// `--max-inflight` flag, else `fallback` (0 = classic micro-batch
  /// windows). Maps to serve::InferenceOptions::max_inflight.
  int GetMaxInflight(int fallback = 0) const;

  /// Relative request deadline in microseconds: the `--deadline-us`
  /// flag, else `fallback` (0 = none). Maps to
  /// serve::SubmitOptions::deadline_us (or the scheduler's
  /// default_deadline_us).
  std::int64_t GetDeadlineUs(std::int64_t fallback = 0) const;

  /// Burn-rate load shedding toggle: the `--shed-on-slo` flag, else
  /// `fallback`. Maps to serve::SchedulerOptions::shed_on_slo.
  bool GetShedOnSlo(bool fallback = false) const;

  /// Token-bucket quotas parsed from `--tenant-quota` entries of the
  /// form "name:tokens_per_sec" or "name:tokens_per_sec:burst",
  /// comma-separated for multiple tenants
  /// (e.g. --tenant-quota=free:100,batch:10:50). Aborts on a malformed
  /// entry. Empty when the flag is absent.
  std::vector<TenantQuotaFlag> GetTenantQuotas() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_FLAGS_H_
