#ifndef OODGNN_UTIL_FLAGS_H_
#define OODGNN_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace oodgnn {

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

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_FLAGS_H_
