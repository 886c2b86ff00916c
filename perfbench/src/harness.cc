#include "perfbench/src/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/tensor/backend.h"
#include "src/tensor/simd.h"
#include "src/util/timer.h"

extern char** environ;

namespace perfbench {

std::int64_t NowUs() { return oodgnn::NowMicros(); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%lld,"
                 "\"end_us\":%lld,\"parent\":%d,\"step\":%lld}\n",
                 i, span.name, static_cast<long long>(span.start_us),
                 static_cast<long long>(span.end_us), span.parent,
                 static_cast<long long>(span.step));
  }
  return std::fclose(file) == 0;
}

std::map<std::string, std::int64_t> KernelCounters() {
  std::map<std::string, std::int64_t> counters;
  for (const auto& [name, value] :
       oodgnn::obs::MetricsRegistry::Global().GetSnapshot().counters) {
    if (name.rfind("kernel/", 0) == 0) counters[name] = value;
  }
  return counters;
}

namespace {

std::int64_t Delta(const std::map<std::string, std::int64_t>& before,
                   const std::map<std::string, std::int64_t>& after,
                   const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// The kernels reported one by one (BENCHMARK.json declares their
/// kernel.<op>.* metrics; run.py checks the two agree).
const char* const kKernelOps[] = {
    "matmul",          "matmul_ta",           "matmul_tb",
    "row_broadcast",   "axpy",                "scale",
    "column_sum",      "gather_scatter",      "scatter_planned",
    "hadamard_column_sum", "add_transposed",  "rff_map",
};

}  // namespace

void AddKernelMetrics(const std::map<std::string, std::int64_t>& before,
                      const std::map<std::string, std::int64_t>& after,
                      MetricList* metrics) {
  for (const std::string op : kKernelOps) {
    for (const char* field : {"calls", "elems", "us"}) {
      metrics->emplace_back(
          "kernel." + op + "." + field,
          static_cast<double>(
              Delta(before, after, "kernel/" + op + "/" + field)));
    }
  }
  std::int64_t calls = 0;
  std::int64_t parallel = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind("kernel/simd/", 0) == 0) continue;
    if (EndsWith(name, "/parallel_calls")) {
      parallel += Delta(before, after, name);
    } else if (EndsWith(name, "/calls")) {
      calls += Delta(before, after, name);
    }
  }
  const std::int64_t vector_calls =
      Delta(before, after, "kernel/simd/vector_calls");
  const std::int64_t scalar_calls =
      Delta(before, after, "kernel/simd/scalar_calls");
  metrics->emplace_back("kernel.parallel_share",
                        calls > 0 ? static_cast<double>(parallel) /
                                        static_cast<double>(calls)
                                  : 0.0);
  metrics->emplace_back(
      "kernel.simd_share",
      vector_calls + scalar_calls > 0
          ? static_cast<double>(vector_calls) /
                static_cast<double>(vector_calls + scalar_calls)
          : 0.0);
}

bool SetupDue(size_t taken, int repeats, std::int64_t start_us,
              double seconds) {
  if (static_cast<int>(taken) >= repeats) return false;
  const double offset_us =
      seconds * 1e6 * static_cast<double>(taken) / static_cast<double>(repeats);
  return NowUs() >= start_us + static_cast<std::int64_t>(offset_us);
}

void RunResult::Gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
}

std::vector<std::string> OodgnnEnvVars() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("OODGNN_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  return names;
}

namespace {

/// "0-3,6" style rendering of the CPUs this process may run on.
std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  int cpu = 0;
  while (cpu < CPU_SETSIZE) {
    if (!CPU_ISSET(cpu, &set)) {
      ++cpu;
      continue;
    }
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) out += "-" + std::to_string(last);
    cpu = last + 1;
  }
  return out;
}

}  // namespace

std::string ProvenanceJson(int engine_workers) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity_count =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return oodgnn::obs::JsonObjectWriter()
      .Put("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Put("affinity", AffinityList())
      .Put("affinity_cpus", affinity_count)
      .Put("simd_isa", oodgnn::simd::IsaName())
      .Put("simd_enabled", oodgnn::simd::Enabled())
      .Put("compiler", __VERSION__)
      .Put("ndebug", ndebug)
      .Put("backend_threads", oodgnn::GetBackend().num_threads())
      .Put("engine_workers", engine_workers)
      .Build();
}

void PrintResult(const RunResult& result) {
  oodgnn::obs::JsonObjectWriter metrics;
  for (const auto& [name, value] : result.metrics) metrics.Put(name, value);
  oodgnn::obs::JsonObjectWriter info;
  for (const auto& [name, raw] : result.info) info.PutRaw(name, raw);
  std::printf("%s\n", oodgnn::obs::JsonObjectWriter()
                          .Put("correct", result.correct)
                          .Put("attempted", result.attempted)
                          .Put("failed", result.failed)
                          .PutRaw("metrics", metrics.Build())
                          .PutRaw("info", info.Build())
                          .Build()
                          .c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
