// Stress/chaos suite for the continuous-batching server core:
// deadline-aware scheduling, per-tenant admission control, SLO
// burn-rate load shedding, and versioned hot weight rollout.
//
// Determinism strategy:
//   * Scheduler-level tests run single-threaded against a FakeClock —
//     deadline expiry, token-bucket refill, slack floors and shed
//     decisions are exact, with no wall-clock sleeps anywhere.
//   * Engine-level tests freeze the FakeClock so quota and deadline
//     admission outcomes stay exact even with live worker threads
//     (workers make progress on real condition-variable time; only
//     *decisions* read the injected clock).
//   * The raced chaos test asserts invariants that hold under any
//     interleaving: every future resolves exactly once (value or
//     ShedError), dispatched + shed == submitted per tenant, version
//     attribution sums to the graphs executed, and every served row is
//     bitwise equal to the reference forward of the exact weight
//     version its span reports.

#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/serve/inference.h"
#include "src/serve/scheduler.h"
#include "src/serve/version.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using serve::InferenceEngine;
using serve::InferenceOptions;
using serve::InferenceStats;
using serve::ModelSpec;
using serve::QueuedRequest;
using serve::Scheduler;
using serve::SchedulerOptions;
using serve::SchedulerStats;
using serve::ShedError;
using serve::ShedReason;
using serve::SubmitOptions;
using serve::SubmitResult;
using serve::TenantQuotaSpec;
using serve::TenantStats;
using test::FakeClock;

GraphDataset TinyDataset() {
  TrianglesConfig config;
  config.num_train = 24;
  config.num_valid = 8;
  config.num_test = 8;
  config.train_max_nodes = 12;
  config.test_max_nodes = 20;
  return MakeTrianglesDataset(config, 77);
}

EncoderConfig TinyEncoder(int feature_dim) {
  EncoderConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.dropout = 0.5f;  // Identity in eval mode; must not matter.
  return config;
}

ModelSpec TinySpec(const GraphDataset& dataset) {
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  return spec;
}

/// Tape-based eval-mode logits for the whole graph list in one batch:
/// the bitwise reference every engine configuration must reproduce.
Tensor ReferenceLogits(GraphPredictionModel* model,
                       const std::vector<const Graph*>& graphs) {
  GraphBatch batch = GraphBatch::FromGraphs(graphs);
  Rng rng(999);
  return model->Predict(batch, /*training=*/false, &rng).value();
}

bool RowsBitwiseEqual(const Tensor& row, const Tensor& all, int r) {
  return row.cols() == all.cols() &&
         std::memcmp(row.data(),
                     all.data() + static_cast<size_t>(r) * all.cols(),
                     static_cast<size_t>(all.cols()) * sizeof(float)) == 0;
}

/// Asserts both conservation invariants on a drained scheduler
/// snapshot: totals and every tenant.
void ExpectConservation(const SchedulerStats& stats) {
  ASSERT_EQ(stats.queued, 0) << "queue must be drained first";
  EXPECT_EQ(stats.dispatched + stats.shed, stats.submitted);
  std::int64_t tenant_submitted = 0;
  for (const TenantStats& tenant : stats.tenants) {
    EXPECT_EQ(tenant.dispatched + tenant.shed, tenant.submitted)
        << "tenant " << tenant.tenant;
    std::int64_t by_reason = 0;
    for (int r = 0; r < serve::kNumShedReasons; ++r) {
      by_reason += tenant.shed_by[r];
    }
    EXPECT_EQ(by_reason, tenant.shed) << "tenant " << tenant.tenant;
    tenant_submitted += tenant.submitted;
  }
  EXPECT_EQ(tenant_submitted, stats.submitted);
}

// ---------------------------------------------------------------------------
// Scheduler unit tests: single-threaded, FakeClock, fully deterministic.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PopOrderRespectsPriorityDeadlineAndFifo) {
  FakeClock clock(1000000);
  Scheduler scheduler(SchedulerOptions{}, /*registry=*/nullptr, &clock);
  // payload doubles as the identity tag; the scheduler never
  // dereferences it.
  auto admit = [&](int priority, std::int64_t deadline_us, std::intptr_t tag) {
    QueuedRequest request;
    request.priority = priority;
    request.deadline_us = deadline_us;
    request.payload = reinterpret_cast<void*>(tag);
    ASSERT_EQ(scheduler.Admit(request), ShedReason::kNone);
  };
  admit(1, 0, 10);              // Low priority, no deadline.
  admit(0, 1000000 + 900, 20);  // Urgent priority, late deadline.
  admit(0, 1000000 + 500, 30);  // Urgent priority, early deadline.
  admit(0, 0, 40);              // Urgent priority, no deadline (sorts last).
  admit(0, 0, 50);              // Same: FIFO after 40.
  admit(1, 1000000 + 100, 60);  // Low priority beats nothing above prio 0.

  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  scheduler.PopBatch(/*max_items=*/10, &batch, &expired);
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(batch.size(), 6u);
  const std::intptr_t want[] = {30, 20, 40, 50, 60, 10};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(batch[i].payload), want[i])
        << "position " << i;
  }
  ExpectConservation(scheduler.stats());
}

TEST(SchedulerTest, QueueFullShedsAtBound) {
  FakeClock clock(1000000);
  SchedulerOptions options;
  options.max_queue = 2;
  Scheduler scheduler(options, /*registry=*/nullptr, &clock);
  EXPECT_EQ(scheduler.Admit(QueuedRequest{}), ShedReason::kNone);
  EXPECT_EQ(scheduler.Admit(QueuedRequest{}), ShedReason::kNone);
  EXPECT_EQ(scheduler.Admit(QueuedRequest{}), ShedReason::kQueueFull);
  // Draining one slot re-opens admission.
  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  scheduler.PopBatch(1, &batch, &expired);
  EXPECT_EQ(scheduler.Admit(QueuedRequest{}), ShedReason::kNone);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed_by[static_cast<int>(ShedReason::kQueueFull)], 1);
}

TEST(SchedulerTest, TokenBucketQuotaRefillsOnFakeClock) {
  FakeClock clock(1000000);
  SchedulerOptions options;
  options.tenant_quotas.push_back(TenantQuotaSpec{"metered", 1000.0, 2.0});
  Scheduler scheduler(options, /*registry=*/nullptr, &clock);
  const int metered = scheduler.TenantIndex("metered");
  const int unlimited = scheduler.TenantIndex("free");
  auto admit = [&](int tenant) {
    QueuedRequest request;
    request.tenant_index = tenant;
    return scheduler.Admit(request);
  };
  // Burst of 2 passes; the third is quota-shed with the clock frozen.
  EXPECT_EQ(admit(metered), ShedReason::kNone);
  EXPECT_EQ(admit(metered), ShedReason::kNone);
  EXPECT_EQ(admit(metered), ShedReason::kTenantQuota);
  // The unlimited tenant is untouched by the metered tenant's bucket.
  EXPECT_EQ(admit(unlimited), ShedReason::kNone);
  // 1 ms at 1000 tokens/s = exactly one token back.
  clock.Advance(1000);
  EXPECT_EQ(admit(metered), ShedReason::kNone);
  EXPECT_EQ(admit(metered), ShedReason::kTenantQuota);
  // A long idle stretch refills to burst capacity, not beyond.
  clock.Advance(60 * 1000 * 1000);
  EXPECT_EQ(admit(metered), ShedReason::kNone);
  EXPECT_EQ(admit(metered), ShedReason::kNone);
  EXPECT_EQ(admit(metered), ShedReason::kTenantQuota);

  const SchedulerStats stats = scheduler.stats();
  const TenantStats& tenant = stats.tenants[static_cast<size_t>(metered)];
  EXPECT_EQ(tenant.submitted, 8);
  EXPECT_EQ(tenant.admitted, 5);
  EXPECT_EQ(tenant.shed_by[static_cast<int>(ShedReason::kTenantQuota)], 3);
}

TEST(SchedulerTest, DeadlineFailFastAndSlackFloor) {
  FakeClock clock(1000000);
  Scheduler scheduler(SchedulerOptions{}, /*registry=*/nullptr, &clock);
  auto admit = [&](std::int64_t deadline_us) {
    QueuedRequest request;
    request.deadline_us = deadline_us;
    return scheduler.Admit(request);
  };
  // Already expired: fail fast.
  EXPECT_EQ(admit(999000), ShedReason::kDeadlineExpired);
  // Expiring at the admission instant: still doomed (<=).
  EXPECT_EQ(admit(1000000), ShedReason::kDeadlineExpired);
  // One microsecond of slack: admitted.
  EXPECT_EQ(admit(1000001), ShedReason::kNone);
  // No deadline: never fail-fast.
  EXPECT_EQ(admit(0), ShedReason::kNone);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed_by[static_cast<int>(ShedReason::kDeadlineExpired)], 2);
  EXPECT_EQ(stats.admitted, 2);
}

TEST(SchedulerTest, DispatchTimeExpiryMovesToExpired) {
  FakeClock clock(1000000);
  Scheduler scheduler(SchedulerOptions{}, /*registry=*/nullptr, &clock);
  QueuedRequest doomed;
  doomed.deadline_us = 1000500;
  ASSERT_EQ(scheduler.Admit(doomed), ShedReason::kNone);
  QueuedRequest healthy;
  healthy.deadline_us = 2000000;
  ASSERT_EQ(scheduler.Admit(healthy), ShedReason::kNone);
  // The first deadline expires while queued.
  clock.Advance(500);
  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  scheduler.PopBatch(10, &batch, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].deadline_us, 1000500);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].deadline_us, 2000000);
  const SchedulerStats stats = scheduler.stats();
  // A dispatch-time expiry counts in admitted AND shed: the precise
  // invariant is dispatched + shed == submitted.
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.dispatched, 1);
  EXPECT_EQ(stats.shed, 1);
  ExpectConservation(stats);
}

TEST(SchedulerTest, SloShedRespectsProtectedPriority) {
  FakeClock clock(1000000);
  SchedulerOptions options;
  options.shed_on_slo = true;
  options.slo_shed_burn_rate = 1.0;
  options.slo_protected_priority = 0;
  Scheduler scheduler(options, /*registry=*/nullptr, &clock);
  auto admit = [&](int priority) {
    QueuedRequest request;
    request.priority = priority;
    return scheduler.Admit(request);
  };
  // Below the shed threshold: everything passes.
  scheduler.SetBurnRate(0.5);
  EXPECT_EQ(admit(0), ShedReason::kNone);
  EXPECT_EQ(admit(1), ShedReason::kNone);
  // Burning: non-protected priorities shed, protected ones get through.
  scheduler.SetBurnRate(2.0);
  EXPECT_EQ(admit(0), ShedReason::kNone);
  EXPECT_EQ(admit(1), ShedReason::kSloShed);
  EXPECT_EQ(admit(5), ShedReason::kSloShed);
  // Recovery re-admits immediately.
  scheduler.SetBurnRate(0.0);
  EXPECT_EQ(admit(1), ShedReason::kNone);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed_by[static_cast<int>(ShedReason::kSloShed)], 2);
}

TEST(SchedulerTest, ConservationHoldsUnderRandomizedChaos) {
  // Property test: a random mix of admits (tenants, priorities,
  // deadlines), malformed-input refusals, clock advances, burn-rate
  // flips and partial drains can never break conservation. Every shed
  // reason is exercised.
  for (const uint64_t seed : {3u, 17u, 20260808u}) {
    Rng rng(seed);
    FakeClock clock(1000000);
    SchedulerOptions options;
    options.max_queue = 8;
    options.shed_on_slo = true;
    options.slo_shed_burn_rate = 1.0;
    options.slo_protected_priority = 0;
    options.tenant_quotas.push_back(TenantQuotaSpec{"metered", 2000.0, 4.0});
    Scheduler scheduler(options, /*registry=*/nullptr, &clock);
    const int metered = scheduler.TenantIndex("metered");
    std::int64_t client_submitted = 0;
    std::int64_t client_popped = 0;
    std::int64_t client_shed = 0;
    for (int step = 0; step < 3000; ++step) {
      const double action = rng.Uniform();
      if (action < 0.60) {
        QueuedRequest request;
        request.tenant_index = rng.Bernoulli(0.5) ? metered : 0;
        request.priority = static_cast<int>(rng.UniformInt(0, 2));
        if (rng.Bernoulli(0.5)) {
          // Anywhere from already-expired to comfortably in the future.
          request.deadline_us = clock.NowMicros() + rng.UniformInt(-200, 2000);
        }
        ++client_submitted;
        if (rng.Bernoulli(0.05)) {
          // The engine refuses malformed graphs before admission.
          scheduler.RejectInvalid(request.tenant_index);
          ++client_shed;
        } else if (scheduler.Admit(request) != ShedReason::kNone) {
          ++client_shed;
        }
      } else if (action < 0.80) {
        std::vector<QueuedRequest> batch;
        std::vector<QueuedRequest> expired;
        scheduler.PopBatch(static_cast<int>(rng.UniformInt(1, 4)), &batch,
                           &expired);
        client_popped += static_cast<std::int64_t>(batch.size());
        client_shed += static_cast<std::int64_t>(expired.size());
      } else if (action < 0.95) {
        clock.Advance(rng.UniformInt(0, 500));
      } else {
        scheduler.SetBurnRate(rng.Bernoulli(0.5) ? 2.0 : 0.0);
      }
    }
    // Drain whatever is left (some of it expired in the queue).
    while (!scheduler.empty()) {
      std::vector<QueuedRequest> batch;
      std::vector<QueuedRequest> expired;
      scheduler.PopBatch(7, &batch, &expired);
      client_popped += static_cast<std::int64_t>(batch.size());
      client_shed += static_cast<std::int64_t>(expired.size());
    }
    const SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, client_submitted) << "seed " << seed;
    EXPECT_EQ(stats.dispatched, client_popped) << "seed " << seed;
    EXPECT_EQ(stats.shed, client_shed) << "seed " << seed;
    ExpectConservation(stats);
    // The chaos mix must actually have exercised every shed path.
    for (int r = 1; r < serve::kNumShedReasons; ++r) {
      EXPECT_GT(stats.shed_by[r], 0)
          << "seed " << seed << " reason " << r << " never fired";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level tests: live worker threads, frozen FakeClock for exact
// admission decisions.
// ---------------------------------------------------------------------------

TEST(ServeSchedTest, PrioritizedSubmitsStayBitwiseEqualToReference) {
  GraphDataset dataset = TinyDataset();
  Rng rng(5);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor reference = ReferenceLogits(&model, graphs);

  InferenceOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 3;
  options.max_inflight = 5;
  InferenceEngine engine(TinySpec(dataset), options);
  engine.SyncFrom(model);

  // Scheduling affects order and placement only, never values: a mixed
  // bag of priorities/tenants must reproduce the reference bitwise.
  Rng prio_rng(1234);
  std::vector<SubmitResult> results;
  results.reserve(graphs.size());
  for (const Graph* g : graphs) {
    SubmitOptions submit;
    submit.priority = static_cast<int>(prio_rng.UniformInt(0, 3));
    submit.tenant = prio_rng.Bernoulli(0.5) ? "a" : "b";
    results.push_back(engine.Submit(*g, submit));
  }
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].admitted);
    const Tensor row = results[i].future.get();
    EXPECT_TRUE(RowsBitwiseEqual(row, reference, static_cast<int>(i)))
        << "graph " << i;
  }
  const InferenceStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.dispatched,
            static_cast<std::int64_t>(graphs.size()));
  EXPECT_EQ(stats.scheduler.shed, 0);
}

TEST(ServeSchedTest, TenantQuotaShedsDeterministicallyOnFrozenClock) {
  GraphDataset dataset = TinyDataset();
  FakeClock clock(1000000);
  InferenceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  options.scheduler.tenant_quotas.push_back(
      TenantQuotaSpec{"metered", 1000.0, 2.0});
  obs::MetricsRegistry registry;
  options.telemetry_registry = &registry;
  InferenceEngine engine(TinySpec(dataset), options);

  const Graph& graph = dataset.graphs[dataset.test_idx[0]];
  SubmitOptions metered;
  metered.tenant = "metered";
  std::vector<SubmitResult> results;
  for (int i = 0; i < 5; ++i) results.push_back(engine.Submit(graph, metered));
  // Frozen clock: exactly the burst of 2 is admitted, rest quota-shed,
  // regardless of worker timing.
  int served = 0;
  int shed = 0;
  for (SubmitResult& result : results) {
    if (result.admitted) {
      EXPECT_EQ(result.future.get().cols(), dataset.OutputDim());
      ++served;
    } else {
      EXPECT_EQ(result.shed, ShedReason::kTenantQuota);
      try {
        result.future.get();
        FAIL() << "shed future must throw";
      } catch (const ShedError& error) {
        EXPECT_EQ(error.reason(), ShedReason::kTenantQuota);
      }
      ++shed;
    }
  }
  EXPECT_EQ(served, 2);
  EXPECT_EQ(shed, 3);
  // Refill one token and the tenant is admitted again.
  clock.Advance(1000);
  SubmitResult refilled = engine.Submit(graph, metered);
  EXPECT_TRUE(refilled.admitted);
  (void)refilled.future.get();

  const InferenceStats stats = engine.stats();
  bool found = false;
  for (const TenantStats& tenant : stats.scheduler.tenants) {
    if (tenant.tenant != "metered") continue;
    found = true;
    EXPECT_EQ(tenant.submitted, 6);
    EXPECT_EQ(tenant.dispatched, 3);
    EXPECT_EQ(tenant.shed_by[static_cast<int>(ShedReason::kTenantQuota)], 3);
    EXPECT_EQ(tenant.dispatched + tenant.shed, tenant.submitted);
  }
  EXPECT_TRUE(found);
  // The shed family is visible to exporters.
  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  std::int64_t quota_sheds = -1;
  for (const auto& counter : snapshot.counters) {
    if (counter.first == "serve/shed/quota") quota_sheds = counter.second;
  }
  EXPECT_EQ(quota_sheds, 3);
}

TEST(ServeSchedTest, DeadlineAdmissionIsExactOnFrozenClock) {
  GraphDataset dataset = TinyDataset();
  FakeClock clock(1000000);
  InferenceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  InferenceEngine engine(TinySpec(dataset), options);
  const Graph& graph = dataset.graphs[dataset.test_idx[0]];

  // Negative relative deadline = already expired: deterministic
  // admission shed, span mirrored before the future throws.
  SubmitOptions expired_opts;
  expired_opts.deadline_us = -1;
  obs::RequestSpan span;
  SubmitResult expired = engine.Submit(graph, expired_opts, &span);
  EXPECT_FALSE(expired.admitted);
  EXPECT_EQ(expired.shed, ShedReason::kDeadlineExpired);
  EXPECT_EQ(span.request_id, expired.request_id);
  EXPECT_EQ(span.model_version, 0);  // Never reached a worker.
  EXPECT_THROW(expired.future.get(), ShedError);

  // One microsecond of slack admits (and with the clock frozen the
  // queued deadline can never expire afterwards).
  SubmitOptions healthy_opts;
  healthy_opts.deadline_us = 1;
  SubmitResult healthy = engine.Submit(graph, healthy_opts);
  ASSERT_TRUE(healthy.admitted);
  EXPECT_EQ(healthy.future.get().cols(), dataset.OutputDim());
}

TEST(ServeSchedTest, QueuedDeadlineExpiryShedsAtDispatch) {
  GraphDataset dataset = TinyDataset();
  Rng rng(5);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  const Graph& doomed_graph = dataset.graphs[dataset.test_idx[0]];
  const Graph& filler_graph = dataset.graphs[dataset.test_idx[1]];
  const Tensor reference = ReferenceLogits(&model, {&filler_graph});

  FakeClock clock(1000000);
  InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 2;
  // A batching window far longer than the test: a lone request waits in
  // it until a second one fills the batch, so the worker pops both
  // together, after the clock has moved past the first one's deadline.
  options.max_batch_wait_us = 600 * 1000 * 1000;
  options.clock = &clock;
  obs::MetricsRegistry registry;
  options.telemetry_registry = &registry;
  InferenceEngine engine(TinySpec(dataset), options);
  engine.SyncFrom(model);

  SubmitOptions deadline_opts;
  deadline_opts.deadline_us = 1000;
  obs::RequestSpan doomed_span;
  SubmitResult doomed =
      engine.Submit(doomed_graph, deadline_opts, &doomed_span);
  ASSERT_TRUE(doomed.admitted);
  const std::int64_t expired_at = clock.Advance(1500);
  SubmitResult filler = engine.Submit(filler_graph, SubmitOptions{});
  ASSERT_TRUE(filler.admitted);

  try {
    (void)doomed.future.get();
    FAIL() << "a request whose deadline passed in the queue was served";
  } catch (const ShedError& error) {
    EXPECT_EQ(error.reason(), ShedReason::kDeadlineExpired);
    EXPECT_EQ(error.request_id(), doomed.request_id);
  }
  // The span is mirrored before the future throws.
  EXPECT_EQ(doomed_span.request_id, doomed.request_id);
  EXPECT_EQ(doomed_span.model_version, 0);  // Never reached a replica.
  EXPECT_EQ(doomed_span.done_us, expired_at);
  EXPECT_TRUE(RowsBitwiseEqual(filler.future.get(), reference, 0));

  const SchedulerStats stats = engine.stats().scheduler;
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.dispatched, 1);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.shed_by[static_cast<int>(ShedReason::kDeadlineExpired)], 1);
  ExpectConservation(stats);
}

TEST(ServeSchedTest, BurnRateBreachShedsUnprotectedPriorities) {
  GraphDataset dataset = TinyDataset();
  InferenceOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  options.telemetry_registry = &registry;
  // An impossible objective: every request violates (latency > -1).
  obs::SloSpec slo;
  slo.name = "always_burn";
  slo.quantile = 0.5;
  slo.threshold_us = -1.0;
  slo.window = 4;
  options.slos = {slo};
  options.scheduler.shed_on_slo = true;
  options.scheduler.slo_shed_burn_rate = 1.0;
  options.scheduler.slo_protected_priority = 0;
  InferenceEngine engine(TinySpec(dataset), options);
  const Graph& graph = dataset.graphs[dataset.test_idx[0]];

  // Protected (priority 0) traffic drives the burn rate over 1; the
  // signal is published before each future resolves, so after these
  // gets the breach is guaranteed visible to admission.
  for (int i = 0; i < 8; ++i) (void)engine.Predict(graph);
  ASSERT_GT(engine.stats().slos[0].status.burn_rate, 1.0);

  SubmitOptions low;
  low.priority = 1;
  SubmitResult shed = engine.Submit(graph, low);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.shed, ShedReason::kSloShed);
  EXPECT_THROW(shed.future.get(), ShedError);
  // Protected traffic still gets through while burning.
  (void)engine.Predict(graph);
  const InferenceStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.shed_by[static_cast<int>(ShedReason::kSloShed)],
            1);
  EXPECT_EQ(stats.scheduler.dispatched, 9);
}

TEST(ServeSchedTest, HotRolloutServesNewWeightsAndTagsSpans) {
  GraphDataset dataset = TinyDataset();
  Rng rng_a(5);
  GraphPredictionModel model_a(Method::kGin, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng_a);
  Rng rng_b(6);
  GraphPredictionModel model_b(Method::kGin, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng_b);
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor ref_a = ReferenceLogits(&model_a, graphs);
  const Tensor ref_b = ReferenceLogits(&model_b, graphs);

  InferenceOptions options;
  options.num_workers = 2;
  obs::MetricsRegistry registry;
  options.telemetry_registry = &registry;
  InferenceEngine engine(TinySpec(dataset), options);
  EXPECT_EQ(engine.stats().weight_version, 1);  // Construction publishes v1.

  engine.SyncFrom(model_a);  // v2
  obs::RequestSpan span_a;
  const Tensor row_a = engine.Submit(*graphs[0], SubmitOptions{}, &span_a)
                           .future.get();
  EXPECT_TRUE(RowsBitwiseEqual(row_a, ref_a, 0));
  EXPECT_EQ(span_a.model_version, 2);

  // SyncFrom returns before any worker adopted; the next batch each
  // worker runs adopts v3 at its own boundary — every request
  // submitted after this line serves v3.
  engine.SyncFrom(model_b);  // v3
  for (size_t i = 0; i < graphs.size(); ++i) {
    obs::RequestSpan span;
    const Tensor row = engine.Submit(*graphs[i], SubmitOptions{}, &span)
                           .future.get();
    EXPECT_TRUE(RowsBitwiseEqual(row, ref_b, static_cast<int>(i)))
        << "graph " << i;
    EXPECT_EQ(span.model_version, 3);
  }

  const InferenceStats stats = engine.stats();
  EXPECT_EQ(stats.weight_version, 3);
  EXPECT_EQ(stats.rollouts, 3);
  std::int64_t attributed = 0;
  for (const serve::VersionCount& count : stats.versions) {
    attributed += count.requests;
  }
  // Version attribution is exact: every executed graph counted once.
  EXPECT_EQ(attributed, stats.scheduler.dispatched);
}

TEST(ServeSchedTest, ZeroAllocHoldsWithSchedulingOn) {
  GraphDataset dataset = TinyDataset();
  InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 1;
  options.max_batch_wait_us = 0;
  options.scheduler.max_queue = 64;
  InferenceEngine engine(TinySpec(dataset), options);
  const Graph& graph = dataset.graphs[dataset.train_idx[0]];
  const auto serve = [&](int count) {
    for (int i = 0; i < count; ++i) {
      SubmitOptions submit;
      submit.priority = i % 3;
      (void)engine.Submit(graph, submit).future.get();
    }
  };
  serve(4);  // Grows the worker's arena to fit the batch.
  const std::int64_t warm_allocs = engine.stats().heap_allocs;
  serve(32);
  const InferenceStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 36);
  // Admission control touches no tensor storage: the warmed-up worker
  // serves every prioritized request without a heap allocation.
  EXPECT_EQ(stats.heap_allocs, warm_allocs);
}

// ---------------------------------------------------------------------------
// Input validation: malformed graphs are refused at Submit with a typed
// shed instead of tripping a batch-construction check on a worker (which
// would abort the process and every request batched with the bad one).
// ---------------------------------------------------------------------------

TEST(ServeSchedTest, MalformedGraphsAreRefusedAndBatchMatesServedBitwise) {
  GraphDataset dataset = TinyDataset();
  Rng rng(7);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor reference = ReferenceLogits(&model, graphs);

  // One graph per malformation Submit must catch.
  std::vector<Graph> bad;
  bad.emplace_back(3, dataset.feature_dim + 1);  // Feature width.
  bad.emplace_back(3, dataset.feature_dim);
  bad.back().targets = {1.f};  // Target arity (the spec has none).
  bad.emplace_back(3, dataset.feature_dim);
  bad.back().edge_src = {0, 1};
  bad.back().edge_dst = {1, 3};  // Endpoint past the last node.
  bad.emplace_back(3, dataset.feature_dim);
  bad.back().edge_src = {-1};
  bad.back().edge_dst = {0};  // Negative endpoint.
  bad.emplace_back(3, dataset.feature_dim);
  bad.back().edge_src = {0, 1};
  bad.back().edge_dst = {1};  // Edge arrays of different lengths.
  ASSERT_LE(bad.size(), graphs.size());

  obs::MetricsRegistry registry;
  InferenceOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 4;
  options.max_batch_wait_us = 200;
  options.telemetry_registry = &registry;
  InferenceEngine engine(TinySpec(dataset), options);
  engine.SyncFrom(model);

  // Interleaved submissions: each bad graph arrives between good ones
  // that share its batching window.
  SubmitOptions submit;
  submit.tenant = "mixed";
  std::vector<SubmitResult> good_results;
  std::vector<SubmitResult> bad_results;
  for (size_t i = 0; i < graphs.size(); ++i) {
    good_results.push_back(engine.Submit(*graphs[i], submit));
    if (i < bad.size()) bad_results.push_back(engine.Submit(bad[i], submit));
  }
  for (size_t i = 0; i < bad_results.size(); ++i) {
    EXPECT_FALSE(bad_results[i].admitted) << "bad graph " << i;
    EXPECT_EQ(bad_results[i].shed, ShedReason::kInvalidInput)
        << "bad graph " << i;
    try {
      (void)bad_results[i].future.get();
      ADD_FAILURE() << "bad graph " << i << " was served";
    } catch (const ShedError& error) {
      EXPECT_EQ(error.reason(), ShedReason::kInvalidInput);
    }
  }
  for (size_t i = 0; i < good_results.size(); ++i) {
    ASSERT_TRUE(good_results[i].admitted) << "graph " << i;
    const Tensor row = good_results[i].future.get();
    EXPECT_TRUE(RowsBitwiseEqual(row, reference, static_cast<int>(i)))
        << "graph " << i;
  }

  const auto num_bad = static_cast<std::int64_t>(bad.size());
  const InferenceStats stats = engine.stats();
  ExpectConservation(stats.scheduler);
  EXPECT_EQ(stats.scheduler.shed_by[static_cast<int>(
                ShedReason::kInvalidInput)],
            num_bad);
  bool found = false;
  for (const TenantStats& tenant : stats.scheduler.tenants) {
    if (tenant.tenant != "mixed") continue;
    found = true;
    EXPECT_EQ(tenant.submitted, static_cast<std::int64_t>(graphs.size()) +
                                    num_bad);
    EXPECT_EQ(tenant.shed, num_bad);
    EXPECT_EQ(tenant.shed_by[static_cast<int>(ShedReason::kInvalidInput)],
              num_bad);
  }
  EXPECT_TRUE(found);
  std::int64_t invalid_sheds = -1;
  for (const auto& counter : registry.GetSnapshot().counters) {
    if (counter.first == "serve/shed/invalid") invalid_sheds = counter.second;
  }
  EXPECT_EQ(invalid_sheds, num_bad);
}

// ---------------------------------------------------------------------------
// Raced chaos: submitters vs rollouts vs stats vs stop,
// pinned by interleaving-independent invariants. Run under TSan by the
// sanitize-serve-sched label.
// ---------------------------------------------------------------------------

TEST(ServeSchedTest, RacedSubmitRolloutRollbackStopKeepsInvariants) {
  GraphDataset dataset = TinyDataset();
  Rng rng_a(5);
  GraphPredictionModel model_a(Method::kGin, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng_a);
  Rng rng_b(6);
  GraphPredictionModel model_b(Method::kGin, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng_b);
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.train_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor ref_a = ReferenceLogits(&model_a, graphs);
  const Tensor ref_b = ReferenceLogits(&model_b, graphs);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 60;

  InferenceOptions options;
  options.num_workers = 3;
  options.max_batch_graphs = 4;
  options.max_inflight = 6;
  options.max_batch_wait_us = 50;
  obs::MetricsRegistry registry;
  options.telemetry_registry = &registry;
  // A tight queue bound so overload genuinely sheds during the race.
  options.scheduler.max_queue = 16;

  struct Outcome {
    obs::RequestSpan span;
    Tensor row;
    bool served = false;
    bool shed = false;
  };
  std::vector<std::vector<Outcome>> outcomes(
      kSubmitters, std::vector<Outcome>(kPerSubmitter));

  {
    InferenceEngine engine(TinySpec(dataset), options);
    engine.SyncFrom(model_a);  // v2, before any submitter starts.

    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        Rng rng(1000 + static_cast<uint64_t>(s));
        for (int i = 0; i < kPerSubmitter; ++i) {
          Outcome& outcome = outcomes[static_cast<size_t>(s)]
                                     [static_cast<size_t>(i)];
          const size_t g = static_cast<size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(graphs.size()) - 1));
          SubmitOptions submit;
          submit.priority = static_cast<int>(rng.UniformInt(0, 2));
          submit.tenant = rng.Bernoulli(0.5) ? "x" : "y";
          SubmitResult result =
              engine.Submit(*graphs[g], submit, &outcome.span);
          try {
            outcome.row = result.future.get();
            outcome.served = true;
            // Remember which graph this was via the span's request id
            // slot — the row is checked against the graph's reference
            // row below.
            outcome.span.request_id = static_cast<std::int64_t>(g);
          } catch (const ShedError&) {
            outcome.shed = true;
          }
        }
      });
    }
    // Publisher: a deterministic id sequence raced against the
    // submitters. v3 = B, then back to A as v4, v5 = A, v6 = B.
    std::thread publisher([&] {
      engine.SyncFrom(model_b);  // v3 = B
      (void)engine.stats();
      engine.SyncFrom(model_a);  // v4 = A
      (void)engine.stats();
      engine.SyncFrom(model_a);  // v5 = A
      engine.SyncFrom(model_b);  // v6 = B
    });
    // Stats reader racing everything (TSan coverage for the snapshot
    // paths).
    std::thread reader([&] {
      for (int i = 0; i < 50; ++i) (void)engine.stats();
    });
    for (std::thread& t : submitters) t.join();
    publisher.join();
    reader.join();

    // Every future resolved exactly once, one way or the other.
    std::int64_t served = 0;
    std::int64_t shed = 0;
    for (const auto& per_thread : outcomes) {
      for (const Outcome& outcome : per_thread) {
        ASSERT_NE(outcome.served, outcome.shed);
        if (outcome.served) {
          ++served;
          // The serving version is tagged on the span before the
          // future resolves; rows must match that exact version's
          // reference forward, bitwise — no torn weights, ever.
          const Tensor& ref =
              (outcome.span.model_version == 3 ||
               outcome.span.model_version == 6)
                  ? ref_b
                  : ref_a;
          ASSERT_GE(outcome.span.model_version, 2);
          ASSERT_LE(outcome.span.model_version, 6);
          EXPECT_TRUE(RowsBitwiseEqual(
              outcome.row, ref,
              static_cast<int>(outcome.span.request_id)));
        } else {
          ++shed;
        }
      }
    }
    EXPECT_EQ(served + shed, kSubmitters * kPerSubmitter);

    const InferenceStats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.submitted, kSubmitters * kPerSubmitter);
    EXPECT_EQ(stats.scheduler.dispatched, served);
    EXPECT_EQ(stats.scheduler.shed, shed);
    ExpectConservation(stats.scheduler);
    // Version attribution reconciles with execution exactly.
    std::int64_t attributed = 0;
    for (const serve::VersionCount& count : stats.versions) {
      EXPECT_GE(count.version, 1);
      EXPECT_LE(count.version, 6);
      attributed += count.requests;
    }
    EXPECT_EQ(attributed, served);
    EXPECT_EQ(stats.rollouts, 6);
  }  // Engine destruction drains and joins with requests settled.
}

TEST(ServeSchedTest, DestructionDrainsQueuedRequests) {
  // Submit a burst and destroy the engine without waiting: every
  // future must still resolve (the destructor drains before joining).
  GraphDataset dataset = TinyDataset();
  InferenceOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 2;
  std::vector<std::future<Tensor>> futures;
  {
    InferenceEngine engine(TinySpec(dataset), options);
    for (size_t idx : dataset.train_idx) {
      futures.push_back(engine.Submit(dataset.graphs[idx]));
    }
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().cols(), dataset.OutputDim());
  }
}

}  // namespace
}  // namespace oodgnn