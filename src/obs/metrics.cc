#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "src/obs/json.h"
#include "src/util/check.h"
#include "src/util/table.h"

namespace oodgnn {
namespace obs {
namespace {

/// Magnitude bucket of `v` (see StreamingHistogram::kNumBuckets doc).
int BucketOf(double v) {
  const double mag = std::fabs(v);
  if (mag == 0.0 || !std::isfinite(mag)) return 0;
  int exp = 0;
  std::frexp(mag, &exp);  // mag = f·2^exp with f in [0.5, 1)
  const int bucket = exp + StreamingHistogram::kZeroBucket;
  if (bucket < 0) return 0;
  if (bucket >= StreamingHistogram::kNumBuckets) {
    return StreamingHistogram::kNumBuckets - 1;
  }
  return bucket;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void StreamingHistogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (summary_.count == 0) {
    summary_.min = v;
    summary_.max = v;
  } else {
    if (v < summary_.min) summary_.min = v;
    if (v > summary_.max) summary_.max = v;
  }
  ++summary_.count;
  summary_.sum += v;
  ++buckets_[BucketOf(v)];
}

StreamingHistogram::Summary StreamingHistogram::GetSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary summary = summary_;
  summary.p50 = QuantileLocked(0.50);
  summary.p95 = QuantileLocked(0.95);
  summary.p99 = QuantileLocked(0.99);
  return summary;
}

double StreamingHistogram::QuantileLocked(double q) const {
  if (summary_.count == 0) return 0.0;
  const double target = q * static_cast<double>(summary_.count);
  std::int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      if (b == 0) return 0.0;
      return std::ldexp(1.0, b - kZeroBucket);  // upper bucket edge
    }
  }
  return summary_.max;
}

void StreamingHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  summary_ = Summary();
  for (std::int64_t& b : buckets_) b = 0;
}

std::string MetricsSnapshot::ToTableString() const {
  ResultTable table({"Metric", "Kind", "Value", "Count", "Mean", "Min", "Max"});
  for (const auto& [name, value] : counters) {
    table.AddRow({name, "counter", std::to_string(value), "", "", "", ""});
  }
  for (const auto& [name, value] : gauges) {
    table.AddRow({name, "gauge", FormatDouble(value), "", "", "", ""});
  }
  for (const auto& [name, s] : histograms) {
    table.AddRow({name, "histogram", FormatDouble(s.sum),
                  std::to_string(s.count), FormatDouble(s.mean()),
                  FormatDouble(s.min), FormatDouble(s.max)});
  }
  return table.ToString();
}

std::string MetricsSnapshot::ToJson() const {
  JsonObjectWriter counters_json;
  for (const auto& [name, value] : counters) counters_json.Put(name, value);
  JsonObjectWriter gauges_json;
  for (const auto& [name, value] : gauges) gauges_json.Put(name, value);
  JsonObjectWriter histograms_json;
  for (const auto& [name, s] : histograms) {
    histograms_json.PutRaw(name, JsonObjectWriter()
                                     .Put("count", s.count)
                                     .Put("sum", s.sum)
                                     .Put("min", s.min)
                                     .Put("max", s.max)
                                     .Put("p50", s.p50)
                                     .Put("p95", s.p95)
                                     .Put("p99", s.p99)
                                     .Build());
  }
  return JsonObjectWriter()
      .PutRaw("counters", counters_json.Build())
      .PutRaw("gauges", gauges_json.Build())
      .PutRaw("histograms", histograms_json.Build())
      .Build();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  OODGNN_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  OODGNN_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

StreamingHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  OODGNN_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<StreamingHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->GetSummary());
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace obs
}  // namespace oodgnn
