#include "src/serve/inference.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/nn/serialize.h"
#include "src/obs/metrics.h"
#include "src/graph/batch.h"
#include "src/tensor/arena.h"
#include "src/train/checkpoint.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace oodgnn {
namespace serve {
namespace {

/// Every replica is initialized from this same seed, so all replicas
/// are bitwise identical to each other even before any SyncFrom/Load.
constexpr uint64_t kReplicaInitSeed = 0x00D64E2A11CE5EEDull;

/// Why `graph` cannot be batched under `spec`, or null when it can:
/// the conditions batch construction (GraphBatch::FromGraphs,
/// SegmentPlan::Build) relies on, tested here so a bad request is
/// refused at Submit instead of aborting the worker and every request
/// batched with it.
const char* InvalidGraphReason(const Graph& graph, const ModelSpec& spec) {
  if (graph.feature_dim() != spec.encoder.feature_dim) {
    return "feature width differs from the spec";
  }
  if (static_cast<int>(graph.targets.size()) != spec.num_targets) {
    return "target arity differs from the spec";
  }
  if (!graph.target_mask.empty() &&
      graph.target_mask.size() != graph.targets.size()) {
    return "target mask and targets differ in length";
  }
  if (graph.edge_src.size() != graph.edge_dst.size()) {
    return "edge endpoint arrays differ in length";
  }
  const int n = graph.num_nodes();
  for (size_t e = 0; e < graph.edge_src.size(); ++e) {
    if (graph.edge_src[e] < 0 || graph.edge_src[e] >= n ||
        graph.edge_dst[e] < 0 || graph.edge_dst[e] >= n) {
      return "edge endpoint out of range";
    }
  }
  return nullptr;
}

obs::MetricsRegistry* TelemetryRegistry(const InferenceOptions& options) {
  return options.telemetry_registry != nullptr
             ? options.telemetry_registry
             : &obs::MetricsRegistry::Global();
}

}  // namespace

InferenceEngine::InferenceEngine(const ModelSpec& spec,
                                 const InferenceOptions& options)
    : spec_(spec),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()),
      versions_(TelemetryRegistry(options)) {
  OODGNN_CHECK_GT(spec_.output_dim, 0);
  OODGNN_CHECK_GT(spec_.encoder.feature_dim, 0);
  OODGNN_CHECK_GE(options_.num_workers, 1);
  OODGNN_CHECK_GE(options_.max_batch_graphs, 1);
  OODGNN_CHECK_GE(options_.max_batch_wait_us, 0);
  OODGNN_CHECK_GE(options_.max_inflight, 0);
  slot_budget_ = options_.max_inflight > 0 ? options_.max_inflight
                                           : options_.max_batch_graphs;
  replicas_.reserve(static_cast<size_t>(options_.num_workers));
  worker_rngs_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    Rng init_rng(kReplicaInitSeed);
    replicas_.push_back(std::make_unique<GraphPredictionModel>(
        spec_.method, spec_.encoder, spec_.output_dim, &init_rng));
    worker_rngs_.push_back(std::make_unique<Rng>(kReplicaInitSeed + i));
  }
  {
    Rng init_rng(kReplicaInitSeed);
    master_ = std::make_unique<GraphPredictionModel>(
        spec_.method, spec_.encoder, spec_.output_dim, &init_rng);
  }
  obs::MetricsRegistry* registry = TelemetryRegistry(options_);
  collector_ = std::make_unique<obs::SpanCollector>(registry);
  slo_trackers_.reserve(options_.slos.size());
  for (const obs::SloSpec& slo : options_.slos) {
    slo_trackers_.push_back(
        std::make_unique<obs::SloTracker>(slo, registry, clock_));
  }
  scheduler_ = std::make_unique<Scheduler>(options_.scheduler, registry,
                                           clock_);
  // Workers have not started yet, so master_mu_ is uncontended here.
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    PublishFromMasterLocked();
  }
  // Replicas are bitwise identical to the master the initial version
  // was published from (same init seed), so every worker starts on
  // that version without copying it.
  worker_versions_.assign(static_cast<size_t>(options_.num_workers),
                          versions_.current_version());
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&InferenceEngine::WorkerLoop, this, i);
  }
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void InferenceEngine::SyncFrom(const GraphPredictionModel& model) {
  const std::vector<Variable> src_params = model.Parameters();
  const std::vector<Tensor*> src_buffers = model.Buffers();
  std::vector<Tensor> params;
  params.reserve(src_params.size());
  for (const Variable& p : src_params) params.push_back(p.value());
  std::vector<Tensor> buffers;
  buffers.reserve(src_buffers.size());
  for (const Tensor* b : src_buffers) buffers.push_back(*b);

  std::lock_guard<std::mutex> lock(master_mu_);
  ApplyModuleState(params, buffers, master_.get());
  PublishFromMasterLocked();
}

bool InferenceEngine::LoadCheckpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(master_mu_);
  // Validate + apply against the master; nothing is published (and no
  // worker is affected) unless the load succeeds in full.
  if (!LoadCheckpointWeights(path, spec_.method, master_.get())) {
    return false;
  }
  PublishFromMasterLocked();
  return true;
}

bool InferenceEngine::RollbackWeights() {
  // master_mu_ serializes rollbacks against publishes, so the
  // previous/current pair the manager swaps is never mid-update.
  std::lock_guard<std::mutex> lock(master_mu_);
  return versions_.Rollback();
}

std::future<Tensor> InferenceEngine::Submit(const Graph& graph) {
  return Submit(graph, static_cast<obs::RequestSpan*>(nullptr));
}

std::future<Tensor> InferenceEngine::Submit(const Graph& graph,
                                            obs::RequestSpan* span_out) {
  return Submit(graph, SubmitOptions{}, span_out).future;
}

SubmitResult InferenceEngine::Submit(const Graph& graph,
                                     const SubmitOptions& submit_options,
                                     obs::RequestSpan* span_out) {
  const char* invalid = InvalidGraphReason(graph, spec_);
  auto request = std::make_unique<Request>();
  request->graph = &graph;
  request->span_out = span_out;
  request->span.request_id =
      requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  SubmitResult result;
  result.request_id = request->span.request_id;
  result.future = request->promise.get_future();
  ShedReason reason = ShedReason::kNone;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    OODGNN_CHECK(!stop_) << "Submit after engine shutdown";
    const std::int64_t now = clock_->NowMicros();
    request->span.enqueue_us = now;
    const int tenant_index = scheduler_->TenantIndex(submit_options.tenant);
    if (invalid != nullptr) {
      scheduler_->RejectInvalid(tenant_index);
      reason = ShedReason::kInvalidInput;
    } else {
      // Deadlines arrive relative to enqueue (a negative value means
      // already expired — the chaos tests use that); the queue stores
      // them absolute.
      const std::int64_t relative =
          submit_options.deadline_us != 0
              ? submit_options.deadline_us
              : scheduler_->options().default_deadline_us;
      if (relative != 0) request->span.deadline_us = now + relative;
      QueuedRequest queued;
      queued.priority = submit_options.priority;
      queued.deadline_us = request->span.deadline_us;
      queued.tenant_index = tenant_index;
      queued.payload = request.get();
      reason = scheduler_->Admit(queued);
    }
    if (reason == ShedReason::kNone) {
      // The queue owns the request until a worker pops it.
      request.release();
      // Inside the lock so depth updates are totally ordered with the
      // workers' pops — the gauge provably reads 0 once drained.
      collector_->RecordEnqueue(scheduler_->size());
    }
  }
  if (reason == ShedReason::kNone) {
    result.admitted = true;
    queue_cv_.notify_one();
  } else {
    if (invalid != nullptr) {
      OODGNN_LOG_EVERY_N(Warning, 100)
          << "refusing request " << result.request_id << " (tenant '"
          << submit_options.tenant << "'): " << invalid;
    }
    result.shed = reason;
    FailShed(std::move(request), reason);
  }
  return result;
}

Tensor InferenceEngine::Predict(const Graph& graph) {
  return Submit(graph).get();
}

void InferenceEngine::FailShed(std::unique_ptr<Request> request,
                               ShedReason reason) {
  request->span.done_us = clock_->NowMicros();
  if (request->span_out != nullptr) *request->span_out = request->span;
  request->promise.set_exception(std::make_exception_ptr(
      ShedError(reason, request->span.request_id)));
}

InferenceStats InferenceEngine::stats() const {
  InferenceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.heap_allocs = heap_allocs_.load(std::memory_order_relaxed);
  stats.queue_depth = collector_->queue_depth();
  stats.inflight_batches = collector_->inflight_batches();
  stats.queue_wait_us = collector_->queue_wait().GetSummary();
  stats.batch_build_us = collector_->batch_build().GetSummary();
  stats.execute_us = collector_->execute().GetSummary();
  stats.e2e_us = collector_->e2e().GetSummary();
  stats.slos.reserve(slo_trackers_.size());
  for (const auto& tracker : slo_trackers_) {
    stats.slos.push_back({tracker->spec().name, tracker->status()});
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.scheduler = scheduler_->stats();
  }
  stats.weight_version = versions_.current_version();
  stats.rollouts = versions_.rollouts();
  stats.rollbacks = versions_.rollbacks();
  stats.versions = versions_.counts();
  return stats;
}

void InferenceEngine::PublishFromMasterLocked() {
  std::vector<Tensor> params;
  for (const Variable& p : master_->Parameters()) params.push_back(p.value());
  std::vector<Tensor> buffers;
  for (const Tensor* b : master_->Buffers()) buffers.push_back(*b);
  versions_.Publish(std::move(params), std::move(buffers));
}

void InferenceEngine::AdoptCurrentVersion(int worker_index) {
  const std::shared_ptr<const WeightSnapshot> target = versions_.current();
  const size_t w = static_cast<size_t>(worker_index);
  if (target == nullptr || target->version == worker_versions_[w]) return;
  ApplyModuleState(target->params, target->buffers, replicas_[w].get());
  worker_versions_[w] = target->version;
}

void InferenceEngine::WorkerLoop(int worker_index) {
  for (;;) {
    std::vector<QueuedRequest> popped;
    std::vector<QueuedRequest> expired;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !scheduler_->empty(); });
      if (scheduler_->empty()) return;  // stop_ set and queue drained
      // Batching window: a request is in hand; give the queue a bounded
      // chance to fill up to the size cutoff before executing.
      if (!stop_ && options_.max_batch_wait_us > 0 &&
          scheduler_->size() < options_.max_batch_graphs) {
        queue_cv_.wait_for(
            lock, std::chrono::microseconds(options_.max_batch_wait_us),
            [&] {
              return stop_ ||
                     scheduler_->size() >= options_.max_batch_graphs;
            });
      }
      // Continuous top-up: take work up to this worker's slot budget
      // in dispatch order; whatever remains is immediately available
      // to a sibling.
      scheduler_->PopBatch(slot_budget_, &popped, &expired);
      collector_->RecordQueueDepth(scheduler_->size());
    }
    // More requests may remain; let a sibling start on them while this
    // worker executes.
    queue_cv_.notify_one();
    for (QueuedRequest& item : expired) {
      std::unique_ptr<Request> request(static_cast<Request*>(item.payload));
      FailShed(std::move(request), ShedReason::kDeadlineExpired);
    }
    if (popped.empty()) continue;
    std::vector<std::unique_ptr<Request>> batch;
    batch.reserve(popped.size());
    const std::int64_t admit_us = clock_->NowMicros();
    for (QueuedRequest& item : popped) {
      std::unique_ptr<Request> request(static_cast<Request*>(item.payload));
      request->span.admit_us = admit_us;
      batch.push_back(std::move(request));
    }
    // Adopt the newest weight version at the batch boundary: rollouts
    // stagger across workers, and an in-flight batch always finishes
    // on the version it started with.
    AdoptCurrentVersion(worker_index);
    ExecuteBatch(worker_index, std::move(batch));
  }
}

void InferenceEngine::ExecuteBatch(int worker_index,
                                   std::vector<std::unique_ptr<Request>> batch) {
  collector_->RecordBatchBegin();
  const size_t w = static_cast<size_t>(worker_index);
  std::vector<const Graph*> graphs;
  graphs.reserve(batch.size());
  std::int64_t total_nodes = 0;
  for (const auto& request : batch) {
    graphs.push_back(request->graph);
    total_nodes += request->graph->num_nodes();
  }
  const std::int64_t version = worker_versions_[w];

  const std::int64_t heap_allocs_before = TensorHeapAllocsThisThread();
  Tensor logits;
  std::int64_t execute_start_us = 0;
  {
    // The replica and rng below are exclusively this worker's;
    // publishers only touch the version manager, so no weight lock is
    // needed around the forward.
    NoGradGuard no_grad;
    Rng* rng = worker_rngs_[w].get();
    const Mt19937_64 rng_before = rng->engine();
    GraphPredictionModel* model = replicas_[w].get();
    const GraphBatch graph_batch = GraphBatch::FromGraphs(graphs);
    execute_start_us = clock_->NowMicros();
    logits = model->Predict(graph_batch, /*training=*/false, rng).value();
    OODGNN_CHECK(rng->engine() == rng_before)
        << "eval-mode Predict consumed randomness";
  }

  OODGNN_CHECK_EQ(logits.rows(), static_cast<int>(batch.size()));
  std::vector<Tensor> rows;
  rows.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    rows.emplace_back(1, logits.cols());
    std::memcpy(rows.back().data(),
                logits.data() + static_cast<size_t>(i) * logits.cols(),
                static_cast<size_t>(logits.cols()) * sizeof(float));
  }
  // Counted before any future resolves, so stats() read after a
  // future.get() already includes this batch.
  heap_allocs_.fetch_add(TensorHeapAllocsThisThread() - heap_allocs_before,
                         std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  versions_.RecordServed(version, static_cast<std::int64_t>(batch.size()));

  for (size_t i = 0; i < batch.size(); ++i) {
    Request& request = *batch[i];
    request.span.execute_us = execute_start_us;
    request.span.done_us = clock_->NowMicros();
    request.span.model_version = version;
    // The finished span is recorded (and mirrored to the caller's
    // span_out) before the promise resolves, so totals reconcile the
    // moment future.get() returns.
    if (request.span_out != nullptr) *request.span_out = request.span;
    collector_->RecordSpan(request.span);
    ObserveSlos(request.span);
    request.promise.set_value(std::move(rows[i]));
  }
  collector_->RecordBatchEnd(static_cast<std::int64_t>(batch.size()),
                             total_nodes);
}

void InferenceEngine::ObserveSlos(const obs::RequestSpan& span) {
  double worst_burn = 0.0;
  for (auto& tracker : slo_trackers_) {
    double latency_us = 0.0;
    switch (tracker->spec().phase) {
      case obs::SloPhase::kE2e:
        latency_us = static_cast<double>(span.e2e_us());
        break;
      case obs::SloPhase::kQueueWait:
        latency_us = static_cast<double>(span.queue_wait_us());
        break;
      case obs::SloPhase::kExecute:
        latency_us = static_cast<double>(span.execute_dur_us());
        break;
    }
    if (tracker->Observe(latency_us)) {
      const obs::SloStatus status = tracker->status();
      OODGNN_LOG(Warning) << "SLO '" << tracker->spec().name
                          << "' breached: burn rate " << status.burn_rate
                          << " over the last " << tracker->spec().window
                          << " requests (threshold "
                          << tracker->spec().threshold_us << " us at p"
                          << 100.0 * tracker->spec().quantile << ")";
    }
    worst_burn = std::max(worst_burn, tracker->status().burn_rate);
  }
  // The scheduler sheds against the worst current burn rate across the
  // tracked objectives (SetBurnRate is atomic; no queue lock here).
  if (!slo_trackers_.empty()) scheduler_->SetBurnRate(worst_burn);
}

}  // namespace serve
}  // namespace oodgnn
