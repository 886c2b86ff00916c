#include "src/obs/slo.h"

#include "src/util/check.h"

namespace oodgnn {
namespace obs {
namespace {

bool ValidSloName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

SloTracker::SloTracker(const SloSpec& spec, MetricsRegistry* registry)
    : spec_(spec) {
  OODGNN_CHECK(ValidSloName(spec_.name))
      << "SLO name '" << spec_.name << "' must match [a-z0-9_]+";
  OODGNN_CHECK(spec_.quantile > 0.0 && spec_.quantile < 1.0)
      << "SLO '" << spec_.name << "': quantile must be in (0, 1)";
  OODGNN_CHECK_GE(spec_.window, 1);
  ring_.assign(static_cast<size_t>(spec_.window), 0);
  if (registry != nullptr) {
    const std::string prefix = "slo/" + spec_.name;
    burn_rate_gauge_ = &registry->GetGauge(prefix + "/burn_rate");
    violations_counter_ = &registry->GetCounter(prefix + "/violations");
    breaches_counter_ = &registry->GetCounter(prefix + "/breached_windows");
    registry->GetGauge(prefix + "/threshold_us").Set(spec_.threshold_us);
  }
}

bool SloTracker::Observe(double latency_us, bool error) {
  const bool violation = error || latency_us > spec_.threshold_us;
  bool breached = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++status_.observed;
    if (violation) ++status_.violations;
    breached = ObserveLocked(violation);
  }
  if (violation && violations_counter_ != nullptr) {
    violations_counter_->Increment();
  }
  return breached;
}

bool SloTracker::ObserveLocked(bool violation) {
  bool breached = false;
  window_violations_ += ring_[static_cast<size_t>(ring_pos_)] == 0
                            ? (violation ? 1 : 0)
                            : (violation ? 0 : -1);
  ring_[static_cast<size_t>(ring_pos_)] = violation ? 1 : 0;
  ring_pos_ = (ring_pos_ + 1) % spec_.window;
  if (status_.observed >= spec_.window) {
    // The ring now holds the last `window` outcomes: the sliding
    // burn rate is its violating share over the error budget.
    const double share = static_cast<double>(window_violations_) /
                         static_cast<double>(spec_.window);
    status_.burn_rate = share / (1.0 - spec_.quantile);
    if (burn_rate_gauge_ != nullptr) {
      burn_rate_gauge_->Set(status_.burn_rate);
    }
    // Breaches are counted once per completed (non-overlapping)
    // window so a single bad stretch cannot inflate the counter by
    // its length.
    if (ring_pos_ == 0) {
      ++status_.windows;
      if (status_.burn_rate > 1.0) {
        ++status_.breached_windows;
        breached = true;
        if (breaches_counter_ != nullptr) breaches_counter_->Increment();
      }
    }
  }
  return breached;
}

SloStatus SloTracker::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace obs
}  // namespace oodgnn
