#ifndef OODGNN_SERVE_INFERENCE_H_
#define OODGNN_SERVE_INFERENCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/gnn/encoder.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/serve/scheduler.h"
#include "src/serve/version.h"
#include "src/tensor/tensor.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace serve {

/// Everything needed to reconstruct a GraphPredictionModel shell whose
/// weights will be overwritten from a snapshot: a checkpoint stores
/// tensors in registration order, so the architecture must match
/// exactly.
struct ModelSpec {
  Method method = Method::kGin;
  EncoderConfig encoder;
  int output_dim = 0;
  /// Vector-target arity of the graphs this engine serves (the
  /// Graph::targets length; 0 for class-label-only graphs). Submit
  /// refuses a graph of any other arity (ShedReason::kInvalidInput):
  /// batch construction requires every graph in a batch to agree.
  int num_targets = 0;
};

/// Serving policy. Admission is continuous-batching style: Submit()
/// pushes into one central scheduler queue and every worker tops up
/// its in-flight slot budget (`max_inflight`) from that queue each
/// iteration, so a big batch on one worker never blocks short requests
/// from dispatching on another. `max_batch_wait_us` keeps the classic
/// size-or-timeout coalescing window on top: a worker holding fewer
/// than `max_batch_graphs` queued requests waits at most that long for
/// more before executing what it has.
struct InferenceOptions {
  int num_workers = 1;
  int max_batch_graphs = 32;
  int max_batch_wait_us = 200;

  /// Per-worker in-flight slot budget: the most graphs one worker pops
  /// into a single execution. 0 = auto (max_batch_graphs).
  int max_inflight = 0;

  /// Admission control: priorities, deadlines, per-tenant token-bucket
  /// quotas and SLO burn-rate load shedding (src/serve/scheduler.h).
  /// The default policy admits everything in FIFO order — exactly the
  /// historical engine behavior.
  SchedulerOptions scheduler;

  /// Time source for span stamps, deadlines, quota refill and SLO
  /// windows. Null = Clock::Real(). Tests inject a FakeClock to make
  /// deadline expiry and shed decisions reproducible without sleeping.
  const Clock* clock = nullptr;

  /// Registry the request-span collector (src/obs/span.h), SLO
  /// trackers, scheduler and version manager publish to; null means
  /// MetricsRegistry::Global() (what exporters scrape). Tests pass a
  /// private registry for per-engine accounting. Telemetry is always
  /// on: all metric handles are resolved at engine construction, so
  /// the per-request cost is a few clock reads, relaxed atomics and a
  /// histogram bucket increment — no strings, maps, or heap, so a
  /// warmed-up engine still allocates no tensor memory. It also feeds
  /// the SLO burn-rate signal the scheduler sheds on.
  obs::MetricsRegistry* telemetry_registry = nullptr;

  /// Latency objectives evaluated on every finished request. Default:
  /// p99 end-to-end under 100 ms over 512-request windows. Breached
  /// windows are counted in stats() and logged at Warning.
  std::vector<obs::SloSpec> slos = {obs::SloSpec{}};
};

/// One tracked objective's spec name plus its live accounting.
struct SloReport {
  std::string name;
  obs::SloStatus status;
};

/// Aggregate counters since construction (atomic snapshots; safe to
/// read while serving).
struct InferenceStats {
  std::int64_t requests = 0;  ///< Graphs submitted (admitted or shed).
  std::int64_t batches = 0;   ///< Micro-batches executed.
  /// Tensor-storage heap allocations (arena slab growth) made while
  /// executing batches, up to the last completed batch's logits rows.
  /// Stops rising once every worker's arena fits its traffic — the
  /// zero-allocation serving guarantee the tests pin.
  std::int64_t heap_allocs = 0;

  // Request-span telemetry. Histogram summaries carry count/sum/min/max
  // plus bucket-approximate p50/p95/p99.
  double queue_depth = 0.0;       ///< Queued requests right now.
  double inflight_batches = 0.0;  ///< Micro-batches executing right now.
  obs::StreamingHistogram::Summary queue_wait_us;   ///< Enqueue → admit.
  obs::StreamingHistogram::Summary batch_build_us;  ///< Admit → tensors.
  obs::StreamingHistogram::Summary execute_us;      ///< Tensors → done.
  obs::StreamingHistogram::Summary e2e_us;          ///< Enqueue → done.
  std::vector<SloReport> slos;    ///< One entry per tracked objective.

  /// Admission/shed accounting (totals and per tenant). The
  /// conservation invariants on TenantStats hold here too.
  SchedulerStats scheduler;

  // Versioned-rollout accounting.
  std::int64_t weight_version = 0;  ///< Latest published version.
  std::int64_t rollouts = 0;        ///< Publishes (ctor + syncs/loads).
  /// Graphs served per weight version; sums to the graphs executed.
  std::vector<VersionCount> versions;
};

/// Admission outcome of one Submit. `future` is always valid: it
/// resolves to the logits row when admitted, or throws ShedError (with
/// the reason below) when the request was shed — at admission or later
/// at dispatch when its deadline expired in the queue.
struct SubmitResult {
  bool admitted = false;
  ShedReason shed = ShedReason::kNone;  ///< Admission-time reason only.
  std::int64_t request_id = 0;
  std::future<Tensor> future;
};

/// Grad-free serving front end over the existing kernel backend.
///
/// Threads call Submit() concurrently; requests enter a central
/// deadline/priority-aware scheduler queue, and worker threads
/// continuously top up their slot budgets from it, executing dynamic
/// micro-batches under NoGradGuard. Because every forward op is
/// row-wise or a within-graph segment reduction with a fixed
/// accumulation order, a graph's output is bitwise independent of
/// which other graphs share its micro-batch — engine outputs are
/// bitwise identical to a tape-based eval forward of the same model,
/// regardless of batching, thread count, or submission order (the
/// equivalence suite in tests/serve_test.cc pins this; the scheduler
/// only changes which requests run and in what order, never their
/// results).
///
/// Weights are versioned (src/serve/version.h): SyncFrom /
/// LoadCheckpoint publish an immutable snapshot, and each worker adopts
/// the newest version at its own batch boundary — a hot rollout
/// staggers across workers with no stop-the-world. All replicas are
/// constructed from one fixed seed, so they are bitwise identical to
/// each other at all times, even before any sync.
class InferenceEngine {
 public:
  InferenceEngine(const ModelSpec& spec, const InferenceOptions& options);

  /// Drains outstanding requests, then joins the workers.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Publishes `model`'s parameters and buffers as a new weight
  /// version. Safe while requests are in flight: each worker adopts the
  /// new version at its next batch boundary (in-flight batches finish
  /// on the version they started with).
  void SyncFrom(const GraphPredictionModel& model);

  /// Publishes the model parameters and buffers out of a training
  /// checkpoint written by SaveTrainState (the `.ckpt` that
  /// `--checkpoint-every` writes) as a new weight version, through
  /// LoadCheckpointWeights: the checkpoint's method must match the
  /// spec and every parameter and buffer the model's shape. Returns
  /// false (nothing published) on mismatch or corruption.
  bool LoadCheckpoint(const std::string& path);

  /// Enqueues one graph for prediction. The returned future resolves to
  /// the 1 x output_dim logits row — or throws ShedError if the policy
  /// shed the request, or kInvalidInput if the graph does not fit the
  /// spec (feature width, target arity, edge endpoints). The caller
  /// must keep `graph` alive until the future is ready. Thread-safe.
  std::future<Tensor> Submit(const Graph& graph);

  /// Submit with span capture: when `span_out` is non-null, the
  /// request's finished RequestSpan (all four phase timestamps plus
  /// the serving weight version) is copied into it before the future
  /// is fulfilled, so after future.get() returns the span is complete
  /// and race-free. perfbench's serving workload uses this for exact
  /// client-side percentiles; the engine's own histograms are
  /// factor-of-2 bucket approximations.
  std::future<Tensor> Submit(const Graph& graph, obs::RequestSpan* span_out);

  /// Full-control submit: tenant, priority and deadline per request.
  /// The admission decision is made synchronously (SubmitResult.shed
  /// says why a request was rejected); an admitted request can still
  /// be shed later if its deadline expires while queued, in which case
  /// its future throws ShedError(kDeadlineExpired).
  SubmitResult Submit(const Graph& graph, const SubmitOptions& submit_options,
                      obs::RequestSpan* span_out = nullptr);

  /// Submit + wait: single-graph blocking convenience.
  Tensor Predict(const Graph& graph);

  InferenceStats stats() const;

 private:
  struct Request {
    const Graph* graph;
    std::promise<Tensor> promise;
    obs::RequestSpan span;
    /// Caller-owned mirror for the finished span (null for plain
    /// Submit). Written before the promise is fulfilled.
    obs::RequestSpan* span_out = nullptr;
  };

  void WorkerLoop(int worker_index);
  void ExecuteBatch(int worker_index,
                    std::vector<std::unique_ptr<Request>> batch);

  /// Fails a shed request's future with ShedError (stamping and
  /// mirroring its span first). Shed requests are not fed to the SLO
  /// trackers: sheds are admission outcomes, not latency observations,
  /// and feeding them would couple shedding back into the burn-rate
  /// signal that causes it.
  void FailShed(std::unique_ptr<Request> request, ShedReason reason);

  /// Copies the newest published snapshot into worker `worker_index`'s
  /// private replica if its version moved. Called by that worker only,
  /// at batch boundaries.
  void AdoptCurrentVersion(int worker_index);

  /// Feeds one finished span to every SLO tracker (selecting the phase
  /// duration each spec targets), logs breached windows, and publishes
  /// the worst current burn rate to the scheduler's shed signal.
  void ObserveSlos(const obs::RequestSpan& span);

  /// Collects the master model's state and publishes it as a new
  /// weight version. Caller holds master_mu_.
  void PublishFromMasterLocked();

  const ModelSpec spec_;
  const InferenceOptions options_;
  const Clock* const clock_;  // never null
  /// Most graphs a worker executes at once (max_inflight, defaulted).
  int slot_budget_ = 0;

  /// One model per worker: FactorGCN caches attention inside Forward,
  /// so a shared model would race under concurrent execution. After
  /// construction each replica (and its rng and version slot below) is
  /// touched only by its own worker thread; publishers never write
  /// them — workers pull from versions_ instead.
  std::vector<std::unique_ptr<GraphPredictionModel>> replicas_;
  /// Eval-mode forwards draw nothing, but Predict's signature wants an
  /// Rng; each worker passes its own so a violation cannot race.
  std::vector<std::unique_ptr<Rng>> worker_rngs_;
  std::vector<std::int64_t> worker_versions_;

  /// Master copy weight publishers (SyncFrom / LoadCheckpoint) validate
  /// against.
  /// Never used to serve requests.
  std::unique_ptr<GraphPredictionModel> master_;  // guarded by master_mu_
  std::mutex master_mu_;

  WeightVersionManager versions_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::unique_ptr<Scheduler> scheduler_;  // guarded by queue_mu_
  bool stop_ = false;                     // guarded by queue_mu_

  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> heap_allocs_{0};

  /// The collector's handles point into options.telemetry_registry (or
  /// the global registry), which must outlive the engine.
  std::unique_ptr<obs::SpanCollector> collector_;
  /// One tracker per options.slos entry.
  std::vector<std::unique_ptr<obs::SloTracker>> slo_trackers_;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace oodgnn

#endif  // OODGNN_SERVE_INFERENCE_H_
