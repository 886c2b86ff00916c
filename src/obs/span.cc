#include "src/obs/span.h"

#include "src/util/check.h"

namespace oodgnn {
namespace obs {

SpanCollector::SpanCollector(MetricsRegistry* registry) {
  OODGNN_CHECK(registry != nullptr);
  requests_total_ = &registry->GetCounter("serve/requests/total");
  batches_total_ = &registry->GetCounter("serve/batches/total");
  graphs_total_ = &registry->GetCounter("serve/graphs/total");
  queue_depth_ = &registry->GetGauge("serve/queue/depth");
  inflight_batches_ = &registry->GetGauge("serve/inflight/batches");
  queue_wait_us_ = &registry->GetHistogram("serve/queue_wait/us");
  batch_build_us_ = &registry->GetHistogram("serve/batch_build/us");
  execute_us_ = &registry->GetHistogram("serve/execute/us");
  e2e_us_ = &registry->GetHistogram("serve/e2e/us");
  batch_graphs_ = &registry->GetHistogram("serve/batch/graphs");
  batch_nodes_ = &registry->GetHistogram("serve/batch/nodes");
}

void SpanCollector::RecordEnqueue(std::int64_t queue_depth) {
  requests_total_->Increment();
  queue_depth_->Set(static_cast<double>(queue_depth));
}

void SpanCollector::RecordQueueDepth(std::int64_t queue_depth) {
  queue_depth_->Set(static_cast<double>(queue_depth));
}

void SpanCollector::RecordBatchBegin() {
  const std::int64_t inflight =
      inflight_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_batches_->Set(static_cast<double>(inflight));
}

void SpanCollector::RecordBatchEnd(std::int64_t graphs, std::int64_t nodes) {
  batches_total_->Increment();
  graphs_total_->Add(graphs);
  batch_graphs_->Observe(static_cast<double>(graphs));
  batch_nodes_->Observe(static_cast<double>(nodes));
  const std::int64_t inflight =
      inflight_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  inflight_batches_->Set(static_cast<double>(inflight));
}

void SpanCollector::RecordSpan(const RequestSpan& span) {
  queue_wait_us_->Observe(static_cast<double>(span.queue_wait_us()));
  batch_build_us_->Observe(static_cast<double>(span.batch_build_us()));
  execute_us_->Observe(static_cast<double>(span.execute_dur_us()));
  e2e_us_->Observe(static_cast<double>(span.e2e_us()));
}

}  // namespace obs
}  // namespace oodgnn
