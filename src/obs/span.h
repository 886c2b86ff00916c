#ifndef OODGNN_OBS_SPAN_H_
#define OODGNN_OBS_SPAN_H_

#include <atomic>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace oodgnn {
namespace obs {

/// Wall-clock phase timestamps of one serving request, stamped as the
/// request moves through the engine:
///
///   enqueue_us   Submit() pushed the request onto the queue
///   admit_us     a worker popped it into a micro-batch
///   execute_us   the micro-batch tensors were built; forward starts
///   done_us      the caller's future was fulfilled
///
/// All stamps come from the engine's injected Clock (util/clock.h) —
/// the real monotonic clock in production, so spans are directly
/// comparable to the phase scopes' and the journal's timestamps, or a
/// FakeClock in tests for deterministic deadline/latency behavior. The struct is plain data with no ownership: the engine
/// embeds one per queued request (no extra heap), and Submit can
/// optionally mirror the finished span into caller-owned storage for
/// exact client-side percentile computation (perfbench's serving
/// workload does).
struct RequestSpan {
  std::int64_t request_id = 0;  ///< Monotonically increasing per engine.
  std::int64_t enqueue_us = 0;
  std::int64_t admit_us = 0;
  std::int64_t execute_us = 0;
  std::int64_t done_us = 0;

  /// Weight version that served the request (0 for requests that were
  /// shed before reaching a worker). Tags every span with the rollout
  /// state it observed, so a staggered weight swap is attributable
  /// span-by-span.
  std::int64_t model_version = 0;
  /// Absolute deadline the request carried (0 = none).
  std::int64_t deadline_us = 0;

  // Derived phase durations (valid once done_us is stamped).
  std::int64_t queue_wait_us() const { return admit_us - enqueue_us; }
  std::int64_t batch_build_us() const { return execute_us - admit_us; }
  std::int64_t execute_dur_us() const { return done_us - execute_us; }
  std::int64_t e2e_us() const { return done_us - enqueue_us; }
};

/// Pre-resolved metric handles for the serving path's request-span
/// accounting. All registry lookups (string keys, map nodes) happen
/// once at construction; afterwards every Record* call touches only
/// relaxed atomics and the per-histogram mutex — no strings, no maps,
/// and no heap, so telemetry can stay on without breaking the engine's
/// zero-allocation steady state (InferenceStats::heap_allocs pins it).
///
/// Metric names follow the area/object/unit convention
/// (scripts/check_metric_names.sh):
///
///   counter    serve/requests/total      graphs submitted
///   counter    serve/batches/total       micro-batches executed
///   counter    serve/graphs/total        graphs executed (== requests)
///   gauge      serve/queue/depth         queued requests right now
///   gauge      serve/inflight/batches    batches executing right now
///   histogram  serve/queue_wait/us       enqueue -> batch-admit
///   histogram  serve/batch_build/us      batch-admit -> tensors built
///   histogram  serve/execute/us          tensors built -> future set
///   histogram  serve/e2e/us              enqueue -> future set
///   histogram  serve/batch/graphs        micro-batch occupancy
///   histogram  serve/batch/nodes         total nodes per micro-batch
///
/// Engines sharing one registry share these instances (their totals
/// accumulate jointly); hand each engine a private MetricsRegistry when
/// per-engine accounting matters (tests do).
class SpanCollector {
 public:
  /// Registers (or re-finds) the serve metrics in `registry`. The
  /// registry must outlive the collector.
  explicit SpanCollector(MetricsRegistry* registry);

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Fresh request id (1, 2, 3, … per collector).
  std::int64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// One request entered the queue; `queue_depth` is the depth after
  /// the push.
  void RecordEnqueue(std::int64_t queue_depth);

  /// A worker popped requests into a micro-batch; `queue_depth` is the
  /// depth after the pop.
  void RecordQueueDepth(std::int64_t queue_depth);

  /// Batch execution started / finished (drives the in-flight gauge
  /// and the occupancy histograms).
  void RecordBatchBegin();
  void RecordBatchEnd(std::int64_t graphs, std::int64_t nodes);

  /// A finished request span: feeds the four per-phase histograms.
  void RecordSpan(const RequestSpan& span);

  /// Live gauge values (for InferenceStats snapshots).
  double queue_depth() const { return queue_depth_->value(); }
  double inflight_batches() const { return inflight_batches_->value(); }

  /// Histogram handles (for InferenceStats phase summaries).
  const StreamingHistogram& queue_wait() const { return *queue_wait_us_; }
  const StreamingHistogram& batch_build() const { return *batch_build_us_; }
  const StreamingHistogram& execute() const { return *execute_us_; }
  const StreamingHistogram& e2e() const { return *e2e_us_; }
  const StreamingHistogram& batch_graphs() const { return *batch_graphs_; }

 private:
  std::atomic<std::int64_t> next_request_id_{0};
  std::atomic<std::int64_t> inflight_count_{0};

  Counter* requests_total_;
  Counter* batches_total_;
  Counter* graphs_total_;
  Gauge* queue_depth_;
  Gauge* inflight_batches_;
  StreamingHistogram* queue_wait_us_;
  StreamingHistogram* batch_build_us_;
  StreamingHistogram* execute_us_;
  StreamingHistogram* e2e_us_;
  StreamingHistogram* batch_graphs_;
  StreamingHistogram* batch_nodes_;
};

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_SPAN_H_
