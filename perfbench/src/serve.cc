// Serving workload: open-loop Poisson traffic into an InferenceEngine
// running an OOD-GNN model, at two fixed absolute rates.
//
// One generator thread (the caller) replays a seeded arrival schedule:
// heavy-tailed draws from the size-sorted test split and a
// pro/free/batch tenant mix, while a publisher thread rolls the weights
// out again (SyncFrom) at fixed intervals. Each
// request is timed from its *scheduled* arrival, so a generator or
// engine stall is charged to every request it delays. Every served
// logits row must equal, bitwise, a per-graph no-grad Predict of the
// same model computed off the clock.
//
// Untraced run: alternating `lo` and `hi` tiers over a few rounds. At
// `hi` the admitted load exceeds the engine's capacity and the bounded
// queue sheds the excess, so goodput there follows the engine's speed.
// Traced run: `lo` untraced (overhead baseline), then `lo` and `hi`
// with the kernel profile counters on; per-phase numbers come from the
// engine's RequestSpan mirrors.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/data/registry.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/serve/inference.h"
#include "src/serve/scheduler.h"
#include "src/tensor/arena.h"
#include "src/tensor/variable.h"
#include "src/train/experiment.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using oodgnn::Graph;

/// Per-layer metrics only the training workloads measure.
const char* const kTrainOnlyMetrics[] = {
    "graph.batch_us",     "gnn.encode_us",      "gnn.head_us",
    "core.reweight_us",   "core.decor_loss",    "nn.loss_us",
    "nn.optim_us",        "tensor.backward_us", "train.step_us.p50",
    "train.step_us.p95",  "train.eval_us",      "train.unattributed_us",
    "train.final_loss",   "train.test_acc",
};

/// The tenant mix; the index is the schedule's tenant id.
struct Tenant {
  const char* name;
  double share;
  int priority;
  bool deadline;  ///< Carries the pro deadline.
};
constexpr Tenant kTenants[] = {
    {"free", 0.60, 1, false},
    {"pro", 0.30, 0, true},
    {"batch", 0.10, 2, false},
};

/// A fixed arrival schedule: graph (index into the size-sorted pool),
/// arrival offset in microseconds, tenant.
struct Schedule {
  std::vector<int> graph;
  std::vector<std::int64_t> arrival_us;
  std::vector<int> tenant;
};

/// Poisson arrivals at `rate_rps` for `seconds`; graphs drawn as
/// floor(n * u^3) over the size-sorted pool, so most requests are small
/// and a few are the largest test graphs.
Schedule MakeSchedule(size_t pool_size, double rate_rps, double seconds,
                      oodgnn::Rng* rng) {
  Schedule schedule;
  const double mean_gap_us = 1e6 / rate_rps;
  double clock_us = 0.0;
  while (true) {
    const double u = rng->Uniform(0.0, 1.0);
    const double v = rng->Uniform(0.0, 1.0);
    const double t = rng->Uniform(0.0, 1.0);
    clock_us += -std::log(1.0 - v) * mean_gap_us;
    if (clock_us >= seconds * 1e6) break;
    schedule.graph.push_back(static_cast<int>(std::min(
        static_cast<size_t>(static_cast<double>(pool_size) * u * u * u),
        pool_size - 1)));
    schedule.arrival_us.push_back(static_cast<std::int64_t>(clock_us));
    int tenant = 2;
    double cumulative = 0.0;
    for (int k = 0; k < 3; ++k) {
      cumulative += kTenants[k].share;
      if (t < cumulative) {
        tenant = k;
        break;
      }
    }
    schedule.tenant.push_back(tenant);
  }
  return schedule;
}

/// Busy-waits until `due_us`. A sleeping generator is woken late by
/// milliseconds on a loaded host, which would read as request latency.
void SpinUntilUs(std::int64_t due_us) {
  while (NowUs() < due_us) {
  }
}

/// Sleeps until `due_us`; for the publisher, which needs no precision.
void SleepUntilUs(std::int64_t due_us) {
  const std::int64_t wait_us = due_us - NowUs();
  if (wait_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
  }
}

/// Everything the serving workload needs, built once per set-up.
struct ServeSetup {
  oodgnn::GraphDataset dataset;
  oodgnn::serve::ModelSpec spec;
  std::unique_ptr<oodgnn::GraphPredictionModel> model;
  std::vector<const Graph*> pool;  ///< Test split, sorted by size.
};

ServeSetup BuildSetup(const ServeOptions& options, std::uint64_t seed) {
  using namespace oodgnn;
  ServeSetup setup;
  setup.dataset = MakeDatasetByName(options.dataset, 1.0, seed);
  setup.spec.method = Method::kOodGnn;
  setup.spec.encoder.feature_dim = setup.dataset.feature_dim;
  setup.spec.encoder.readout = RecommendedReadout(setup.dataset.name);
  setup.spec.output_dim = setup.dataset.OutputDim();
  Rng model_rng(seed ^ 0x5EEDF00DULL);
  setup.model = std::make_unique<GraphPredictionModel>(
      setup.spec.method, setup.spec.encoder, setup.spec.output_dim,
      &model_rng);
  for (const size_t idx : setup.dataset.test_idx) {
    setup.pool.push_back(&setup.dataset.graphs[idx]);
  }
  std::stable_sort(setup.pool.begin(), setup.pool.end(),
                   [](const Graph* a, const Graph* b) {
                     return a->num_nodes() < b->num_nodes();
                   });
  return setup;
}

/// The serving policy with the frozen absolute numbers: a bounded
/// queue, SLO shedding of batch traffic, the free tenant's token bucket,
/// e2e SLO tracking.
oodgnn::serve::InferenceOptions MakeEngineOptions(const ServeOptions& options) {
  using namespace oodgnn;
  serve::InferenceOptions engine;
  engine.num_workers = options.workers;
  engine.max_batch_graphs = options.max_batch;
  engine.max_batch_wait_us = options.wait_us;
  engine.max_inflight = options.max_batch;
  engine.scheduler.max_queue = options.max_queue;
  obs::SloSpec slo;
  slo.name = "e2e";
  slo.quantile = 0.9;
  slo.threshold_us = options.slo_ms * 1000.0;
  slo.window = 64;
  engine.slos = {slo};
  engine.scheduler.shed_on_slo = true;
  engine.scheduler.slo_shed_burn_rate = 1.0;
  engine.scheduler.slo_protected_priority = 1;
  engine.scheduler.tenant_quotas.push_back(serve::TenantQuotaSpec{
      "free", options.free_quota_rps, options.quota_burst});
  return engine;
}

/// Outcome of replaying one schedule through a fresh engine.
struct TierOutcome {
  std::int64_t attempted = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t shed_by[oodgnn::serve::kNumShedReasons] = {0, 0, 0, 0, 0};
  std::int64_t failed = 0;  ///< Logits mismatches and unexpected errors.
  std::int64_t within_slo = 0;
  double duration_s = 0.0;
  std::vector<double> e2e_us;  ///< Served requests, from scheduled arrival.
  std::vector<double> queue_wait_us;
  std::vector<double> batch_build_us;
  std::vector<double> execute_us;
  std::vector<double> lateness_us;
  std::vector<double> sync_us;
  oodgnn::serve::InferenceStats stats;

  double ShedShare(oodgnn::serve::ShedReason reason) const {
    return attempted > 0 ? static_cast<double>(shed_by[static_cast<int>(
                               reason)]) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Replays `schedule`; with a non-null `log`, records the tier and each
/// SyncFrom as spans.
TierOutcome RunTier(const ServeSetup& setup, const ServeOptions& options,
                    const std::vector<oodgnn::Tensor>& references,
                    const Schedule& schedule, SpanLog* log) {
  using namespace oodgnn;
  obs::MetricsRegistry registry;
  serve::InferenceOptions engine_options = MakeEngineOptions(options);
  engine_options.telemetry_registry = &registry;
  serve::InferenceEngine engine(setup.spec, engine_options);
  engine.SyncFrom(*setup.model);
  engine.Predict(*setup.pool.front());  // Warm-up, off the clock.

  const size_t n = schedule.graph.size();
  std::vector<obs::RequestSpan> spans(n);
  std::vector<serve::SubmitResult> results;
  results.reserve(n);
  TierOutcome out;
  out.lateness_us.reserve(n);
  const std::int64_t rollout_every_us =
      static_cast<std::int64_t>(options.rollout_every_ms * 1000.0);
  const std::int64_t last_arrival_us =
      n > 0 ? schedule.arrival_us.back() : std::int64_t{0};
  const int tier_span = log ? log->Begin("serve.tier", -1, 0) : -1;
  const std::int64_t start_us = NowUs() + 2000;
  {
    // Weight rollouts come from their own publisher thread at fixed
    // times, so a publish delays requests only through the engine, not
    // by stalling the arrival generator. It is the only span writer
    // while it runs.
    std::jthread publisher([&] {
      for (std::int64_t at_us = rollout_every_us; at_us <= last_arrival_us;
           at_us += rollout_every_us) {
        SleepUntilUs(start_us + at_us);
        const int sync_span = log ? log->Begin("serve.sync", tier_span, 0) : -1;
        const std::int64_t t0 = NowUs();
        engine.SyncFrom(*setup.model);
        out.sync_us.push_back(static_cast<double>(NowUs() - t0));
        if (log) log->End(sync_span);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      const std::int64_t due_us = start_us + schedule.arrival_us[i];
      SpinUntilUs(due_us);
      out.lateness_us.push_back(static_cast<double>(NowUs() - due_us));
      const Tenant& tenant = kTenants[schedule.tenant[i]];
      serve::SubmitOptions submit;
      submit.tenant = tenant.name;
      submit.priority = tenant.priority;
      if (tenant.deadline) submit.deadline_us = options.deadline_us;
      results.push_back(engine.Submit(
          *setup.pool[static_cast<size_t>(schedule.graph[i])], submit,
          &spans[i]));
    }
  }

  const double slo_us = options.slo_ms * 1000.0;
  std::int64_t last_done_us = start_us;
  for (size_t i = 0; i < n; ++i) {
    ++out.attempted;
    try {
      const Tensor row = results[i].future.get();
      const Tensor& want = references[static_cast<size_t>(schedule.graph[i])];
      const bool equal =
          row.SameShape(want) &&
          std::memcmp(row.data(), want.data(),
                      static_cast<size_t>(want.size()) * sizeof(float)) == 0;
      if (!equal) ++out.failed;
      ++out.served;
      const obs::RequestSpan& span = spans[i];
      const double e2e = static_cast<double>(
          span.done_us - (start_us + schedule.arrival_us[i]));
      out.e2e_us.push_back(e2e);
      if (e2e <= slo_us) ++out.within_slo;
      out.queue_wait_us.push_back(static_cast<double>(span.queue_wait_us()));
      out.batch_build_us.push_back(
          static_cast<double>(span.batch_build_us()));
      out.execute_us.push_back(static_cast<double>(span.execute_dur_us()));
      last_done_us = std::max(last_done_us, span.done_us);
    } catch (const serve::ShedError& error) {
      ++out.shed;
      ++out.shed_by[static_cast<int>(error.reason())];
    } catch (...) {
      ++out.failed;
    }
  }
  if (log) log->End(tier_span);
  out.stats = engine.stats();
  const std::int64_t end_us = std::max(
      last_done_us,
      start_us + (n > 0 ? schedule.arrival_us.back() : std::int64_t{0}));
  out.duration_s = static_cast<double>(end_us - start_us) * 1e-6;
  return out;
}

/// Per-graph no-grad forward of the served model: the bitwise oracle.
std::vector<oodgnn::Tensor> ComputeReferences(const ServeSetup& setup) {
  using namespace oodgnn;
  NoGradGuard no_grad;
  Rng rng(0);
  std::vector<Tensor> references;
  for (const Graph* graph : setup.pool) {
    const GraphBatch batch = GraphBatch::FromGraphs({graph});
    references.push_back(
        setup.model->Predict(batch, /*training=*/false, &rng).value());
  }
  return references;
}

/// Tensor-heap allocations of one full micro-batch forward (max_batch
/// graphs from the pool), replicated on the calling thread: the engine
/// allocates on its workers, whose counters are not readable from
/// outside.
double HeapAllocsPerBatch(const ServeSetup& setup, int max_batch) {
  using namespace oodgnn;
  NoGradGuard no_grad;
  Rng rng(0);
  std::vector<const Graph*> graphs;
  for (int i = 0; i < max_batch; ++i) {
    graphs.push_back(setup.pool[static_cast<size_t>(i) % setup.pool.size()]);
  }
  const std::int64_t before = TensorHeapAllocsThisThread();
  {
    const GraphBatch batch = GraphBatch::FromGraphs(graphs);
    setup.model->Predict(batch, /*training=*/false, &rng);
  }
  return static_cast<double>(TensorHeapAllocsThisThread() - before);
}

/// Closed-loop capacity: bursts of heavy-tailed requests submitted at
/// once, best of three rounds. The frozen tier rates were set from the
/// parent commit's value; traced runs report it as serve.capacity_rps.
double CalibrateCapacity(const ServeSetup& setup, const ServeOptions& options,
                         std::uint64_t seed) {
  using namespace oodgnn;
  obs::MetricsRegistry registry;
  serve::InferenceOptions engine_options;
  engine_options.num_workers = options.workers;
  engine_options.max_batch_graphs = options.max_batch;
  engine_options.max_batch_wait_us = options.wait_us;
  engine_options.max_inflight = options.max_batch;
  engine_options.telemetry_registry = &registry;
  serve::InferenceEngine engine(setup.spec, engine_options);
  engine.SyncFrom(*setup.model);
  Rng rng(seed);
  double best_rps = 0.0;
  for (int round = 0; round < 3; ++round) {
    // ~1000 arrivals at an effectively infinite rate: one burst.
    const Schedule burst = MakeSchedule(setup.pool.size(), 1e9, 1e-6, &rng);
    std::vector<std::future<Tensor>> futures;
    const std::int64_t t0 = NowUs();
    for (const int g : burst.graph) {
      futures.push_back(engine.Submit(*setup.pool[static_cast<size_t>(g)]));
    }
    for (auto& future : futures) future.get();
    best_rps = std::max(best_rps, static_cast<double>(futures.size()) * 1e6 /
                                      static_cast<double>(NowUs() - t0));
  }
  return best_rps;
}

/// One set-up: dataset, model, engine construction and its first
/// publish, in seconds.
double SetupSeconds(const ServeOptions& options, std::uint64_t seed) {
  using namespace oodgnn;
  const std::int64_t t0 = NowUs();
  {
    ServeSetup setup = BuildSetup(options, seed);
    obs::MetricsRegistry registry;
    serve::InferenceOptions engine_options = MakeEngineOptions(options);
    engine_options.telemetry_registry = &registry;
    serve::InferenceEngine engine(setup.spec, engine_options);
    engine.SyncFrom(*setup.model);
  }
  return static_cast<double>(NowUs() - t0) * 1e-6;
}

}  // namespace

RunResult RunServeWorkload(const CommonOptions& common,
                           const ServeOptions& options) {
  using namespace oodgnn;
  RunResult result;

  const ServeSetup setup = BuildSetup(options, common.seed);
  const std::vector<Tensor> references = ComputeReferences(setup);
  Rng schedule_rng(common.seed ^ 0xA11CE5ULL);
  SpanLog log;
  const auto run_tier = [&](double rate_rps, double seconds) {
    const Schedule schedule =
        MakeSchedule(setup.pool.size(), rate_rps, seconds, &schedule_rng);
    TierOutcome tier = RunTier(setup, options, references, schedule,
                               common.trace ? &log : nullptr);
    result.attempted += tier.attempted;
    result.failed += tier.failed;
    return tier;
  };
  const auto tier_info = [](const TierOutcome& tier) {
    return obs::JsonObjectWriter()
        .Put("attempted", tier.attempted)
        .Put("served", tier.served)
        .Put("shed", tier.shed)
        .Put("within_slo", tier.within_slo)
        .Put("duration_s", tier.duration_s)
        .Put("lateness_us_p99", Quantile(tier.lateness_us, 0.99))
        .Put("e2e_us_p50", Quantile(tier.e2e_us, 0.5))
        .Put("e2e_us_p99", Quantile(tier.e2e_us, 0.99))
        .Build();
  };

  if (!common.trace) {
    // Alternating lo/hi rounds; goodput is the median over rounds, so a
    // burst of host contention during one round cannot set it. Set-ups
    // are timed between tiers (SetupDue), off the tiers' clocks.
    const double tier_seconds = common.seconds / (2 * options.rounds);
    std::vector<double> setup_s;
    const std::int64_t phase_start = NowUs();
    const auto time_setups = [&] {
      while (SetupDue(setup_s.size(), common.setup_repeats, phase_start,
                      common.seconds)) {
        setup_s.push_back(SetupSeconds(options, common.seed));
      }
    };
    std::vector<double> goodput_rps;
    std::string rounds_info = "[";
    for (int round = 0; round < options.rounds; ++round) {
      time_setups();
      const TierOutcome lo = run_tier(options.lo_rps, tier_seconds);
      time_setups();
      const TierOutcome hi = run_tier(options.hi_rps, tier_seconds);
      result.Gate(!lo.e2e_us.empty() && hi.within_slo > 0,
                  "both tiers complete requests within the SLO");
      goodput_rps.push_back(static_cast<double>(hi.within_slo) /
                            std::max(hi.duration_s, 1e-9));
      if (round > 0) rounds_info += ",";
      rounds_info += obs::JsonObjectWriter()
                         .PutRaw("lo", tier_info(lo))
                         .PutRaw("hi", tier_info(hi))
                         .Put("goodput_rps", goodput_rps.back())
                         .Build();
    }
    while (static_cast<int>(setup_s.size()) < common.setup_repeats) {
      setup_s.push_back(SetupSeconds(options, common.seed));
    }
    result.Gate(result.failed == 0,
                "every served logits row equals the per-graph reference");
    result.info.emplace_back("rounds", rounds_info + "]");
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", PeakRssMb()},
        {"graphs_per_s", Median(goodput_rps)},
    };
    return result;
  }

  // Traced run: an untraced `lo` baseline, then both tiers with the
  // kernel counters on.
  const double third = common.seconds / 3;
  const TierOutcome base = run_tier(options.lo_rps, third);
  obs::SetProfilingEnabled(true);
  const auto counters_before = KernelCounters();
  const TierOutcome lo = run_tier(options.lo_rps, third);
  const TierOutcome hi = run_tier(options.hi_rps, third);
  const auto counters_after = KernelCounters();
  obs::SetProfilingEnabled(false);
  result.Gate(result.failed == 0,
              "every served logits row equals the per-graph reference");
  if (!common.trace_out.empty() && !log.WriteJsonl(common.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 common.trace_out.c_str());
  }
  result.info.emplace_back("lo_untraced", tier_info(base));
  result.info.emplace_back("lo", tier_info(lo));
  result.info.emplace_back("hi", tier_info(hi));

  std::vector<double> sync_us = lo.sync_us;
  sync_us.insert(sync_us.end(), hi.sync_us.begin(), hi.sync_us.end());
  std::vector<double> lateness_us = lo.lateness_us;
  lateness_us.insert(lateness_us.end(), hi.lateness_us.begin(),
                     hi.lateness_us.end());
  const double hi_batches = static_cast<double>(hi.stats.batches);
  using serve::ShedReason;
  MetricList& m = result.metrics;
  for (const char* name : kTrainOnlyMetrics) m.emplace_back(name, 0.0);
  m.emplace_back("tensor.heap_allocs_per_step",
                 HeapAllocsPerBatch(setup, options.max_batch));
  AddKernelMetrics(counters_before, counters_after, &m);
  m.insert(m.end(), {
      {"serve.e2e_us.p50", Quantile(lo.e2e_us, 0.5)},
      {"serve.e2e_us.p99", Quantile(lo.e2e_us, 0.99)},
      {"serve.queue_wait_us.p50", Quantile(lo.queue_wait_us, 0.5)},
      {"serve.queue_wait_us.p99", Quantile(lo.queue_wait_us, 0.99)},
      {"serve.batch_build_us.p50", Quantile(lo.batch_build_us, 0.5)},
      {"serve.batch_build_us.p99", Quantile(lo.batch_build_us, 0.99)},
      {"serve.execute_us.p50", Quantile(lo.execute_us, 0.5)},
      {"serve.execute_us.p99", Quantile(lo.execute_us, 0.99)},
      {"serve.capacity_rps", CalibrateCapacity(setup, options, common.seed)},
      {"serve.batch_graphs_mean",
       hi_batches > 0
           ? static_cast<double>(hi.stats.scheduler.dispatched) / hi_batches
           : 0.0},
      {"serve.shed_share.quota", hi.ShedShare(ShedReason::kTenantQuota)},
      {"serve.shed_share.deadline",
       hi.ShedShare(ShedReason::kDeadlineExpired)},
      {"serve.shed_share.slo", hi.ShedShare(ShedReason::kSloShed)},
      {"serve.shed_share.queue_full", hi.ShedShare(ShedReason::kQueueFull)},
      {"serve.sync_us", Median(sync_us)},
      {"serve.rollouts",
       static_cast<double>(lo.stats.rollouts + hi.stats.rollouts)},
      {"gen.lateness_us.p99", Quantile(lateness_us, 0.99)},
      {"trace.overhead_share",
       Mean(lo.execute_us) / std::max(Mean(base.execute_us), 1e-9) - 1.0},
      {"ops.failed_share",
       static_cast<double>(result.failed + lo.shed + hi.shed + base.shed) /
           static_cast<double>(std::max<std::int64_t>(result.attempted, 1))},
  });
  return result;
}

}  // namespace perfbench
