#ifndef OODGNN_OBS_METRICS_H_
#define OODGNN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace oodgnn {
namespace obs {

/// Monotonically increasing integer metric (dispatch counts, element
/// totals, accumulated microseconds). Relaxed atomics: counters are
/// telemetry, they never order other memory operations.
class Counter {
 public:
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point metric (current loss, learning rate).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming histogram: exact count/sum/min/max plus power-of-two
/// magnitude buckets for approximate quantiles. Bounded memory
/// regardless of how many values are observed.
class StreamingHistogram {
 public:
  /// Bucket b holds |v| in [2^(b-1-kZeroBucket), 2^(b-kZeroBucket));
  /// bucket 0 holds 0 (and anything below the smallest magnitude).
  static constexpr int kNumBuckets = 64;
  static constexpr int kZeroBucket = 32;

  struct Summary {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Bucket-approximated quantiles (the upper edge of the bucket
    /// holding the quantile, exact within a factor of 2), captured with
    /// the counts so snapshots and exporters see one consistent view.
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  void Observe(double v);
  Summary GetSummary() const;
  void Reset();

 private:
  double QuantileLocked(double q) const;  // caller holds mu_

  mutable std::mutex mu_;
  Summary summary_;                              // guarded by mu_
  std::int64_t buckets_[kNumBuckets] = {0};      // guarded by mu_
};

/// Flat view of a registry at one instant, sorted by metric name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, StreamingHistogram::Summary>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Aligned ASCII table (name, kind, value/count/mean/min/max),
  /// rendered via util/table.
  std::string ToTableString() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{"count":..,"sum":..,"min":..,"max":..},...}}.
  std::string ToJson() const;
};

/// Named metric store. Lookup-or-create; returned references stay valid
/// for the registry's lifetime (metrics are never removed). A name
/// identifies exactly one kind — asking for "x" as both a counter and a
/// gauge aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the instrumentation layer writes to:
  /// phase scope histograms (always on, src/obs/trace.h), the
  /// trainer's core/hsic/last_value gauge, the serve/* series of
  /// engines given no private registry, and the kernel counters, which
  /// alone are registered only while profiling is enabled.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  StreamingHistogram& GetHistogram(const std::string& name);

  MetricsSnapshot GetSnapshot() const;
  /// Zeroes every metric (entries stay registered).
  void Reset();
  /// Number of registered metrics of any kind.
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<StreamingHistogram>> histograms_;
};

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_METRICS_H_
