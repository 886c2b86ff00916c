#ifndef OODGNN_OBS_SLO_H_
#define OODGNN_OBS_SLO_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace oodgnn {
namespace obs {

/// One declarative serving objective: "at most (1 - quantile) of
/// requests in any window may exceed threshold_us end to end or fail".
/// Stated as a quantile target ("p99 end-to-end latency under 50 ms")
/// but evaluated in its equivalent budget form — a window breaches when
/// the fraction of violating requests exceeds the error budget
/// (1 - quantile), i.e. when the burn rate passes 1. Errored requests
/// always consume budget, whatever their latency.
struct SloSpec {
  /// Lowercase [a-z0-9_]+ tag used in metric names
  /// ("slo/<name>/burn_rate" etc.) and breach logs.
  std::string name = "e2e_p99";
  double quantile = 0.99;        ///< In (0, 1); budget is 1 - quantile.
  double threshold_us = 100000;  ///< Latency objective at that quantile.
  int window = 512;              ///< Requests per evaluation window.
};

/// Lifetime accounting of one tracked objective (atomic snapshot; safe
/// to read while serving).
struct SloStatus {
  std::int64_t observed = 0;          ///< Requests observed.
  std::int64_t violations = 0;        ///< Over-threshold or errored.
  std::int64_t windows = 0;           ///< Complete windows evaluated.
  std::int64_t breached_windows = 0;  ///< Windows with burn rate > 1.
  double burn_rate = 0.0;             ///< Latest complete window's rate.
};

/// Sliding-window evaluator for one SloSpec. Observe() appends a
/// request outcome to a preallocated ring buffer; every `window`-th
/// observation closes a window, computes its burn rate
/// (violating fraction ÷ error budget), and updates the registry
/// gauges/counters. No allocation after construction; one mutex, no
/// contention beyond the engine's own request rate.
///
/// Registry metrics (pre-resolved at construction; null registry keeps
/// the tracker purely local):
///
///   gauge    slo/<name>/burn_rate        latest window's burn rate
///   gauge    slo/<name>/threshold_us     the configured objective
///   counter  slo/<name>/violations       lifetime violating requests
///   counter  slo/<name>/breached_windows lifetime breached windows
class SloTracker {
 public:
  /// Aborts on malformed specs (empty/illegal name, quantile outside
  /// (0, 1), window < 1).
  SloTracker(const SloSpec& spec, MetricsRegistry* registry);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one request's end-to-end latency. Returns true when this
  /// observation closed a window AND that window breached — the
  /// caller's hook for logging.
  bool Observe(double latency_us, bool error = false);

  SloStatus status() const;
  const SloSpec& spec() const { return spec_; }

 private:
  bool ObserveLocked(bool violation);

  const SloSpec spec_;

  mutable std::mutex mu_;
  std::vector<unsigned char> ring_;  // guarded by mu_; 1 = violation
  int ring_pos_ = 0;                 // guarded by mu_
  SloStatus status_;                 // guarded by mu_
  std::int64_t window_violations_ = 0;  // guarded by mu_

  // Null when constructed without a registry.
  Gauge* burn_rate_gauge_ = nullptr;
  Counter* violations_counter_ = nullptr;
  Counter* breaches_counter_ = nullptr;
};

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_SLO_H_
