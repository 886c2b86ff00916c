// Shared plumbing for the perfbench workloads: clocks, order
// statistics, benchmark-side spans, kernel-counter deltas, provenance,
// and the result record perfbench/run.py reads.
//
// Everything here observes the library from outside: spans are opened
// around calls into public functions, and the only library-internal
// signals read are the existing profile counters and the thread-local
// tensor-heap allocation counter.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds on the library's monotonic clock (the one request
/// spans are stamped with), so benchmark times and engine spans share
/// one time base.
std::int64_t NowUs();

/// Nearest-rank quantile, q in [0, 1]. Empty input yields 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// One benchmark-side span: a timed call into a library layer. `parent`
/// indexes the enclosing span (-1 for roots); `step` groups the spans
/// of one training step or serving tier.
struct Span {
  const char* name;
  std::int64_t start_us;
  std::int64_t end_us;
  int parent;
  std::int64_t step;
};

/// In-memory span log, written out once when the run ends.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  /// Opens a span and returns its index.
  int Begin(const char* name, int parent, std::int64_t step) {
    spans_.push_back(Span{name, NowUs(), 0, parent, step});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `index` and returns its duration in microseconds.
  std::int64_t End(int index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_us = NowUs();
    return span.end_us - span.start_us;
  }

  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Snapshot of the global "kernel/..." profile counters.
std::map<std::string, std::int64_t> KernelCounters();

/// Named metric values, in insertion order.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Adds the kernel-layer per-layer metrics from the counter delta
/// between two KernelCounters() snapshots: kernel.<op>.{calls,elems,us}
/// for the ops the workloads spend most kernel time in,
/// kernel.parallel_share (parallel dispatches / all dispatches) and
/// kernel.simd_share (vector / vector-capable dispatches).
void AddKernelMetrics(const std::map<std::string, std::int64_t>& before,
                      const std::map<std::string, std::int64_t>& after,
                      MetricList* metrics);

/// Whether set-up timing number `taken` (0-based) is due. A run's
/// `repeats` set-up timings are spread evenly over its measured phase,
/// which started at `start_us` and lasts `seconds`: host speed drifts
/// over seconds, so set-ups timed back to back would share one sample
/// of it.
bool SetupDue(size_t taken, int repeats, std::int64_t start_us,
              double seconds);

/// Outcome of one workload run, printed as the binary's last stdout
/// line.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricList metrics;
  /// Non-metric facts worth keeping in the report (quality numbers,
  /// sample counts, gate outcomes), as raw JSON values.
  std::vector<std::pair<std::string, std::string>> info;

  /// Records a correctness gate; a failed gate marks the run incorrect.
  void Gate(bool ok, const std::string& what);
};

/// Build and host facts: nproc, affinity set, SIMD ISA and whether the
/// vector path is on, compiler, NDEBUG, backend threads, engine
/// workers (0 for training), as one JSON object.
std::string ProvenanceJson(int engine_workers);

/// Names of OODGNN_* environment variables currently set.
std::vector<std::string> OodgnnEnvVars();

/// Prints `result` as one JSON line on stdout.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
