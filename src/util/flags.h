#ifndef OODGNN_UTIL_FLAGS_H_
#define OODGNN_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace oodgnn {

/// Most worker threads a backend may be given. ThreadPool starts one OS
/// thread per worker with no bound of its own, so an unchecked count (a
/// typo such as 100000) would ask the OS for that many threads; 256 is
/// far above any core count the kernels are tuned for.
constexpr int kMaxThreads = 256;

/// A whole decimal number in [1, kMaxThreads], with no sign, space or
/// suffix. Anything else logs `text` and its `source` at Error and
/// returns 1: one thread, every range run inline.
int ParseThreadCount(const std::string& text, const std::string& source);

/// OODGNN_THREADS through ParseThreadCount; `fallback` if unset or empty.
int ThreadCountFromEnv(int fallback);

/// `text` as an int when std::from_chars reads all of it and the value
/// is in range, as Flags::GetInt parses; anything else (`2x`, `x`, a
/// space) logs `source` and `text` at Error and returns `fallback`.
int ParseIntOr(const std::string& text, const std::string& source,
               int fallback);

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
  /// GetInt and GetDouble parse the whole value (std::from_chars: no
  /// sign but '-', no space or suffix; an int in range, a finite
  /// double); any other text logs the flag and its text at Error and
  /// returns `fallback`.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int GetInt(const std::string& name, int fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Worker-thread count for the compute backend: the `--threads` flag
  /// (through ParseThreadCount) if given, else ThreadCountFromEnv. Pass
  /// the result to SetBackendThreads() (src/tensor/backend.h).
  int GetThreads(int fallback = 1) const;

  /// Metrics-exporter output prefix: the `--metrics-out` flag if
  /// given, else the OODGNN_METRICS_OUT environment variable, else
  /// `fallback` (empty means "exporter off"). Pass the result to
  /// obs::StartGlobalExporter (src/obs/exporter.h).
  std::string GetMetricsOut(const std::string& fallback = "") const;

  /// Exporter tick interval: the `--metrics-interval-ms` flag if
  /// given, else the OODGNN_METRICS_INTERVAL_MS environment variable,
  /// else `fallback`. Both are parsed as GetInt parses.
  int GetMetricsIntervalMs(int fallback = 1000) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_FLAGS_H_
