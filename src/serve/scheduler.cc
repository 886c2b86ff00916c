#include "src/serve/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace oodgnn {
namespace serve {

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kTenantQuota: return "quota";
    case ShedReason::kDeadlineExpired: return "deadline";
    case ShedReason::kSloShed: return "slo";
    case ShedReason::kInvalidInput: return "invalid";
  }
  return "unknown";
}

ShedError::ShedError(ShedReason reason, std::int64_t request_id)
    : reason_(reason), request_id_(request_id) {
  message_ = "request " + std::to_string(request_id) + " shed (" +
             ShedReasonName(reason) + ")";
}

bool Scheduler::TokenBucket::TryTake(std::int64_t now_us) {
  if (!limited) return true;
  if (now_us > last_refill_us) {
    tokens = std::min(capacity,
                      tokens + static_cast<double>(now_us - last_refill_us) *
                                   tokens_per_us);
    last_refill_us = now_us;
  }
  if (tokens >= 1.0) {
    tokens -= 1.0;
    return true;
  }
  return false;
}

Scheduler::Scheduler(const SchedulerOptions& options,
                     obs::MetricsRegistry* registry, const Clock* clock)
    : options_(options), clock_(clock != nullptr ? clock : Clock::Real()) {
  OODGNN_CHECK_GE(options_.max_queue, 0);
  // The default tenant exists from the start and is never quota-limited.
  tenants_.push_back(Tenant{});
  tenants_[0].name = "default";
  tenants_[0].stats.tenant = "default";
  const std::int64_t now = clock_->NowMicros();
  for (const TenantQuotaSpec& quota : options_.tenant_quotas) {
    OODGNN_CHECK(!quota.tenant.empty())
        << "tenant quota entries need a tenant name";
    OODGNN_CHECK_GT(quota.tokens_per_sec, 0.0)
        << "tenant '" << quota.tenant << "': tokens_per_sec must be > 0";
    OODGNN_CHECK_GE(quota.burst, 1.0)
        << "tenant '" << quota.tenant << "': burst must be >= 1";
    const int index = TenantIndex(quota.tenant);
    TokenBucket& bucket = tenants_[static_cast<size_t>(index)].bucket;
    OODGNN_CHECK(!bucket.limited)
        << "tenant '" << quota.tenant << "' has two quota entries";
    bucket.limited = true;
    bucket.capacity = quota.burst;
    bucket.tokens = quota.burst;  // Starts full: an initial burst passes.
    bucket.tokens_per_us = quota.tokens_per_sec / 1e6;
    bucket.last_refill_us = now;
  }
  if (registry != nullptr) {
    submitted_counter_ = &registry->GetCounter("serve/sched/submitted");
    admitted_counter_ = &registry->GetCounter("serve/sched/admitted");
    dispatched_counter_ = &registry->GetCounter("serve/sched/dispatched");
    shed_total_counter_ = &registry->GetCounter("serve/shed/total");
    shed_reason_counters_[static_cast<int>(ShedReason::kQueueFull)] =
        &registry->GetCounter("serve/shed/queue_full");
    shed_reason_counters_[static_cast<int>(ShedReason::kTenantQuota)] =
        &registry->GetCounter("serve/shed/quota");
    shed_reason_counters_[static_cast<int>(ShedReason::kDeadlineExpired)] =
        &registry->GetCounter("serve/shed/deadline");
    shed_reason_counters_[static_cast<int>(ShedReason::kSloShed)] =
        &registry->GetCounter("serve/shed/slo");
    shed_reason_counters_[static_cast<int>(ShedReason::kInvalidInput)] =
        &registry->GetCounter("serve/shed/invalid");
  }
}

int Scheduler::TenantIndex(const std::string& tenant) {
  if (tenant.empty()) return 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == tenant) return static_cast<int>(i);
  }
  tenants_.push_back(Tenant{});
  tenants_.back().name = tenant;
  tenants_.back().stats.tenant = tenant;
  return static_cast<int>(tenants_.size() - 1);
}

/// True when `a` dispatches after `b`: worse priority first, then the
/// later (or absent) deadline, then the later submission.
bool Scheduler::Later(const QueuedRequest& a, const QueuedRequest& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  const std::int64_t da = a.deadline_us == 0
                              ? std::numeric_limits<std::int64_t>::max()
                              : a.deadline_us;
  const std::int64_t db = b.deadline_us == 0
                              ? std::numeric_limits<std::int64_t>::max()
                              : b.deadline_us;
  if (da != db) return da > db;
  return a.seq > b.seq;
}

void Scheduler::AccountShed(int tenant_index, ShedReason reason) {
  const int r = static_cast<int>(reason);
  ++shed_;
  ++shed_by_[r];
  TenantStats& tenant = tenants_[static_cast<size_t>(tenant_index)].stats;
  ++tenant.shed;
  ++tenant.shed_by[r];
  if (shed_total_counter_ != nullptr) shed_total_counter_->Increment();
  if (shed_reason_counters_[r] != nullptr) {
    shed_reason_counters_[r]->Increment();
  }
}

Scheduler::Tenant& Scheduler::CountSubmission(int tenant_index) {
  OODGNN_CHECK_GE(tenant_index, 0);
  OODGNN_CHECK_LT(static_cast<size_t>(tenant_index), tenants_.size());
  Tenant& tenant = tenants_[static_cast<size_t>(tenant_index)];
  ++submitted_;
  ++tenant.stats.submitted;
  if (submitted_counter_ != nullptr) submitted_counter_->Increment();
  return tenant;
}

void Scheduler::RejectInvalid(int tenant_index) {
  CountSubmission(tenant_index);
  AccountShed(tenant_index, ShedReason::kInvalidInput);
}

ShedReason Scheduler::Admit(QueuedRequest request) {
  Tenant& tenant = CountSubmission(request.tenant_index);

  const std::int64_t now = clock_->NowMicros();
  request.enqueue_us = now;
  if (request.deadline_us != 0 && request.deadline_us <= now) {
    // Fail fast on deadlines that have already passed — queueing them
    // only burns capacity on doomed work.
    AccountShed(request.tenant_index, ShedReason::kDeadlineExpired);
    return ShedReason::kDeadlineExpired;
  }
  if (options_.shed_on_slo &&
      request.priority > options_.slo_protected_priority &&
      burn_rate() > options_.slo_shed_burn_rate) {
    AccountShed(request.tenant_index, ShedReason::kSloShed);
    return ShedReason::kSloShed;
  }
  if (options_.max_queue > 0 &&
      static_cast<int>(heap_.size()) >= options_.max_queue) {
    AccountShed(request.tenant_index, ShedReason::kQueueFull);
    return ShedReason::kQueueFull;
  }
  // Quota last: a token is only charged for requests that actually
  // enter the queue.
  if (!tenant.bucket.TryTake(now)) {
    AccountShed(request.tenant_index, ShedReason::kTenantQuota);
    return ShedReason::kTenantQuota;
  }

  request.seq = next_seq_++;
  ++admitted_;
  ++tenant.stats.admitted;
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  heap_.push_back(request);
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return ShedReason::kNone;
}

void Scheduler::PopBatch(int max_items, std::vector<QueuedRequest>* batch,
                         std::vector<QueuedRequest>* expired) {
  const std::int64_t now = clock_->NowMicros();
  while (static_cast<int>(batch->size()) < max_items && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    QueuedRequest request = heap_.back();
    heap_.pop_back();
    if (request.deadline_us != 0 && request.deadline_us <= now) {
      AccountShed(request.tenant_index, ShedReason::kDeadlineExpired);
      expired->push_back(request);
      continue;
    }
    ++dispatched_;
    ++tenants_[static_cast<size_t>(request.tenant_index)].stats.dispatched;
    if (dispatched_counter_ != nullptr) dispatched_counter_->Increment();
    batch->push_back(request);
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats stats;
  stats.submitted = submitted_;
  stats.admitted = admitted_;
  stats.dispatched = dispatched_;
  stats.shed = shed_;
  for (int r = 0; r < kNumShedReasons; ++r) stats.shed_by[r] = shed_by_[r];
  stats.queued = static_cast<std::int64_t>(heap_.size());
  stats.tenants.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) stats.tenants.push_back(tenant.stats);
  return stats;
}

}  // namespace serve
}  // namespace oodgnn
