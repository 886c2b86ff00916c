#ifndef OODGNN_SERVE_SCHEDULER_H_
#define OODGNN_SERVE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/clock.h"

namespace oodgnn {
namespace serve {

/// Why a request was rejected instead of served. kNone means admitted.
/// Shed requests fail fast: their future carries a ShedError with the
/// reason, and every shed is counted per tenant and per reason in the
/// serve/shed/* metric family — the per-tenant invariant
/// admitted + shed == submitted always holds.
enum class ShedReason {
  kNone = 0,
  kQueueFull,        ///< Admission queue at max_queue.
  kTenantQuota,      ///< The tenant's token bucket was empty.
  kDeadlineExpired,  ///< Deadline passed (or slack below the floor).
  kSloShed,          ///< Burn-rate overload shed of a non-protected priority.
  kInvalidInput,     ///< Malformed graph refused at Submit (never queued).
};

const char* ShedReasonName(ShedReason reason);
constexpr int kNumShedReasons = 6;

/// The typed rejection a shed request's future resolves to.
class ShedError : public std::exception {
 public:
  ShedError(ShedReason reason, std::int64_t request_id);

  ShedReason reason() const { return reason_; }
  std::int64_t request_id() const { return request_id_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  ShedReason reason_;
  std::int64_t request_id_;
  std::string message_;
};

/// Per-tenant admission budget as a token bucket: `tokens_per_sec`
/// sustained rate with up to `burst` tokens banked. A tenant without a
/// quota entry is unlimited.
struct TenantQuotaSpec {
  std::string tenant;
  double tokens_per_sec = 0.0;
  double burst = 1.0;
};

/// Admission-control and scheduling policy. The zero-value policy
/// admits everything in FIFO order — exactly the pre-scheduler engine
/// behavior — so existing callers are unaffected unless they opt in.
struct SchedulerOptions {
  /// Queued-request bound; admission beyond it sheds kQueueFull.
  /// 0 = unbounded.
  int max_queue = 0;

  /// Deadline applied to requests that don't carry their own, relative
  /// to enqueue. 0 = no default deadline.
  std::int64_t default_deadline_us = 0;

  /// Fail-fast floor: a request whose deadline is closer than this at
  /// admission is shed immediately (kDeadlineExpired) instead of
  /// queueing doomed work. Already-expired deadlines always fail fast.
  std::int64_t min_deadline_slack_us = 0;

  /// Overload shedding against the SLO burn-rate signal (the engine
  /// feeds its tracker's sliding rate via SetBurnRate): while the
  /// signal exceeds `slo_shed_burn_rate`, requests with priority
  /// strictly greater than `slo_protected_priority` are shed kSloShed
  /// at admission. Protected priorities always get through.
  bool shed_on_slo = false;
  double slo_shed_burn_rate = 1.0;
  int slo_protected_priority = 0;

  /// Token buckets, by tenant name. Tenants not listed are unlimited.
  std::vector<TenantQuotaSpec> tenant_quotas;
};

/// Per-request scheduling attributes (see InferenceEngine::Submit).
struct SubmitOptions {
  /// Tenant the request is accounted (and quota-charged) against.
  /// Empty selects the default tenant, which never has a quota.
  std::string tenant;
  /// Smaller = more urgent; ties dispatch FIFO. Priority 0 is the
  /// default and is SLO-protected under the default policy.
  int priority = 0;
  /// Deadline relative to enqueue; 0 = the policy's default deadline.
  std::int64_t deadline_us = 0;
};

/// One queued entry. The payload pointer is owner-managed (the engine
/// stores its heap-allocated request there); the scheduler never
/// dereferences it.
struct QueuedRequest {
  std::int64_t seq = 0;          ///< Admission order; FIFO tiebreak.
  int priority = 0;
  std::int64_t deadline_us = 0;  ///< Absolute; 0 = none.
  std::int64_t enqueue_us = 0;   ///< Absolute admission stamp.
  int tenant_index = 0;
  void* payload = nullptr;
};

/// Accounting for one tenant. Two conservation invariants hold once
/// the queue is drained:
///
///   dispatched + shed == submitted   (every request ends exactly one
///                                     way: served or shed)
///   admitted + admission sheds == submitted   (every submission either
///                                     entered the queue or failed fast)
///
/// A request shed at dispatch time (its deadline expired while queued)
/// counts in both `admitted` and `shed`, so admitted + shed can exceed
/// submitted only by exactly the number of dispatch-time expiries.
/// With no queued-expiry in play the familiar form
/// admitted + shed == submitted is exact.
struct TenantStats {
  std::string tenant;
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;   ///< Entered the queue.
  std::int64_t dispatched = 0; ///< Popped into a batch and executed.
  std::int64_t shed = 0;       ///< Admission- or dispatch-time sheds.
  std::int64_t shed_by[kNumShedReasons] = {};
};

struct SchedulerStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t dispatched = 0;
  std::int64_t shed = 0;
  std::int64_t shed_by[kNumShedReasons] = {};
  std::int64_t queued = 0;  ///< Currently waiting.
  std::vector<TenantStats> tenants;
};

/// Deadline- and priority-aware admission queue with per-tenant token
/// buckets and burn-rate load shedding. Pop order is a strict weak
/// order over (priority, deadline, seq): most urgent first, earlier
/// deadline breaks priority ties (no deadline sorts last), submission
/// order breaks the rest — so dispatch is deterministic for any fixed
/// admission sequence.
///
/// Externally synchronized: the engine guards every call except
/// SetBurnRate/burn_rate (atomic — the SLO observer on worker threads
/// feeds the signal without taking the queue lock) with its queue
/// mutex. Single-threaded use in tests needs no lock at all, which is
/// what makes shed decisions reproducible under a FakeClock.
///
/// Registry metrics (pre-resolved at construction; null registry keeps
/// the scheduler purely local):
///
///   counter  serve/sched/submitted    admission attempts
///   counter  serve/sched/admitted     entered the queue
///   counter  serve/sched/dispatched   popped into batches
///   counter  serve/shed/total         all sheds
///   counter  serve/shed/queue_full    per-reason sheds...
///   counter  serve/shed/quota
///   counter  serve/shed/deadline
///   counter  serve/shed/slo
///   counter  serve/shed/invalid
class Scheduler {
 public:
  /// `clock` drives token-bucket refill and deadline expiry; null
  /// selects Clock::Real().
  Scheduler(const SchedulerOptions& options, obs::MetricsRegistry* registry,
            const Clock* clock = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Interns a tenant name (empty = the default tenant, index 0).
  /// Stable for the scheduler's lifetime.
  int TenantIndex(const std::string& tenant);

  /// Admission decision for `request` (whose seq/enqueue stamps are
  /// assigned here). kNone = admitted and queued; any other reason =
  /// rejected, payload untouched, accounting updated. Checks run in a
  /// fixed order — deadline fail-fast, SLO shed, queue bound, quota —
  /// so a request is charged a quota token only when it will actually
  /// be queued.
  ShedReason Admit(QueuedRequest request);

  /// Accounts a submission the caller refused before admission because
  /// its input is malformed: counted as submitted and shed
  /// kInvalidInput, so the conservation invariants still hold.
  void RejectInvalid(int tenant_index);

  /// Pops up to `max_items` requests in dispatch order into `batch`.
  /// Requests whose deadline has passed are moved to `expired` instead
  /// (accounted as kDeadlineExpired sheds); the caller fails their
  /// futures. Pops until the queue is empty or `batch` is full.
  void PopBatch(int max_items, std::vector<QueuedRequest>* batch,
                std::vector<QueuedRequest>* expired);

  bool empty() const { return heap_.empty(); }
  std::int64_t size() const { return static_cast<std::int64_t>(heap_.size()); }

  /// Burn-rate overload signal (thread-safe, lock-free).
  void SetBurnRate(double burn_rate) {
    burn_rate_.store(burn_rate, std::memory_order_relaxed);
  }
  double burn_rate() const {
    return burn_rate_.load(std::memory_order_relaxed);
  }

  /// Snapshot of totals and per-tenant accounting (externally
  /// synchronized like the queue operations).
  SchedulerStats stats() const;

  const SchedulerOptions& options() const { return options_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double capacity = 0.0;
    double tokens_per_us = 0.0;
    std::int64_t last_refill_us = 0;
    bool limited = false;  ///< False = unlimited tenant.

    bool TryTake(std::int64_t now_us);
  };

  struct Tenant {
    std::string name;
    TokenBucket bucket;
    TenantStats stats;
  };

  /// Validates `tenant_index` and counts one submission against it.
  Tenant& CountSubmission(int tenant_index);
  void AccountShed(int tenant_index, ShedReason reason);

  static bool Later(const QueuedRequest& a, const QueuedRequest& b);

  const SchedulerOptions options_;
  const Clock* const clock_;  // never null

  std::vector<QueuedRequest> heap_;  ///< Binary max-heap under Later().
  std::vector<Tenant> tenants_;      ///< Index 0 = default tenant.
  std::int64_t next_seq_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t admitted_ = 0;
  std::int64_t dispatched_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t shed_by_[kNumShedReasons] = {};

  std::atomic<double> burn_rate_{0.0};

  // Null when constructed without a registry.
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* dispatched_counter_ = nullptr;
  obs::Counter* shed_total_counter_ = nullptr;
  obs::Counter* shed_reason_counters_[kNumShedReasons] = {};
};

}  // namespace serve
}  // namespace oodgnn

#endif  // OODGNN_SERVE_SCHEDULER_H_
