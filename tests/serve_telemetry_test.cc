// Request-scoped serving telemetry: span collection, SLO evaluation,
// exporters, and their integration with the inference engine.
//
// The load-bearing guarantees pinned here:
//   * totals reconcile — every submitted request shows up exactly once
//     in each per-phase histogram and in the request counter, even
//     under many concurrent submitters;
//   * the queue-depth gauge returns to zero once the engine drains;
//   * a warmed-up engine's zero-allocation steady state holds with
//     telemetry on.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/serve/inference.h"
#include "src/util/file.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using serve::InferenceEngine;
using serve::InferenceOptions;
using serve::InferenceStats;
using serve::ModelSpec;
using test::TempPath;

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
  config.dropout = 0.5f;
  return config;
}

ModelSpec TinySpec(const GraphDataset& dataset) {
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  return spec;
}

std::int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                          const std::string& name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return -1;
}

double GaugeValue(const obs::MetricsSnapshot& snapshot,
                  const std::string& name) {
  for (const auto& [n, v] : snapshot.gauges) {
    if (n == name) return v;
  }
  return -1.0;
}

std::int64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [n, s] : snapshot.histograms) {
    if (n == name) return s.count;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// RequestSpan / SpanCollector units.
// ---------------------------------------------------------------------------

TEST(RequestSpanTest, DerivedDurations) {
  obs::RequestSpan span;
  span.enqueue_us = 100;
  span.admit_us = 150;
  span.execute_us = 240;
  span.done_us = 400;
  EXPECT_EQ(span.queue_wait_us(), 50);
  EXPECT_EQ(span.batch_build_us(), 90);
  EXPECT_EQ(span.execute_dur_us(), 160);
  EXPECT_EQ(span.e2e_us(), 300);
  // Phases partition the end-to-end interval exactly.
  EXPECT_EQ(span.queue_wait_us() + span.batch_build_us() +
                span.execute_dur_us(),
            span.e2e_us());
}

TEST(SpanCollectorTest, RecordsIntoRegistry) {
  obs::MetricsRegistry registry;
  obs::SpanCollector collector(&registry);

  EXPECT_EQ(collector.NextRequestId(), 1);
  EXPECT_EQ(collector.NextRequestId(), 2);

  collector.RecordEnqueue(3);
  EXPECT_EQ(collector.queue_depth(), 3.0);
  collector.RecordQueueDepth(0);
  EXPECT_EQ(collector.queue_depth(), 0.0);

  collector.RecordBatchBegin();
  EXPECT_EQ(collector.inflight_batches(), 1.0);
  collector.RecordBatchEnd(/*graphs=*/4, /*nodes=*/40);
  EXPECT_EQ(collector.inflight_batches(), 0.0);

  obs::RequestSpan span;
  span.enqueue_us = 100;
  span.admit_us = 150;
  span.execute_us = 240;
  span.done_us = 400;
  collector.RecordSpan(span);

  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "serve/requests/total"), 1);
  EXPECT_EQ(CounterValue(snapshot, "serve/batches/total"), 1);
  EXPECT_EQ(CounterValue(snapshot, "serve/graphs/total"), 4);
  EXPECT_EQ(HistogramCount(snapshot, "serve/queue_wait/us"), 1);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch_build/us"), 1);
  EXPECT_EQ(HistogramCount(snapshot, "serve/execute/us"), 1);
  EXPECT_EQ(HistogramCount(snapshot, "serve/e2e/us"), 1);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch/graphs"), 1);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch/nodes"), 1);
  EXPECT_EQ(collector.e2e().GetSummary().sum, 300.0);
}

TEST(SpanCollectorTest, CollectorsSharingARegistryShareHandles) {
  obs::MetricsRegistry registry;
  obs::SpanCollector first(&registry);
  const size_t registered = registry.size();
  obs::SpanCollector second(&registry);
  EXPECT_EQ(registry.size(), registered);  // Lookup, not re-registration.
  first.RecordEnqueue(1);
  second.RecordEnqueue(2);
  EXPECT_EQ(CounterValue(registry.GetSnapshot(), "serve/requests/total"), 2);
}

// ---------------------------------------------------------------------------
// SLO tracker units.
// ---------------------------------------------------------------------------

TEST(SloTrackerTest, BreachesWhenBurnRateExceedsOne) {
  obs::SloSpec spec;
  spec.name = "test_p90";
  spec.quantile = 0.9;  // Error budget: 10% of the window.
  spec.threshold_us = 100;
  spec.window = 10;
  obs::MetricsRegistry registry;
  obs::SloTracker tracker(spec, &registry);

  // 2 of 10 over threshold: violating share 0.2, burn rate 2.0.
  bool breached = false;
  for (int i = 0; i < 10; ++i) {
    breached = tracker.Observe(i < 2 ? 200.0 : 50.0);
  }
  EXPECT_TRUE(breached);  // The window-closing observation reports it.
  const obs::SloStatus status = tracker.status();
  EXPECT_EQ(status.observed, 10);
  EXPECT_EQ(status.violations, 2);
  EXPECT_EQ(status.windows, 1);
  EXPECT_EQ(status.breached_windows, 1);
  EXPECT_DOUBLE_EQ(status.burn_rate, 2.0);

  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  EXPECT_DOUBLE_EQ(GaugeValue(snapshot, "slo/test_p90/burn_rate"), 2.0);
  EXPECT_DOUBLE_EQ(GaugeValue(snapshot, "slo/test_p90/threshold_us"), 100.0);
  EXPECT_EQ(CounterValue(snapshot, "slo/test_p90/violations"), 2);
  EXPECT_EQ(CounterValue(snapshot, "slo/test_p90/breached_windows"), 1);
}

TEST(SloTrackerTest, HealthyWindowDoesNotBreach) {
  obs::SloSpec spec;
  spec.name = "healthy";
  spec.quantile = 0.9;
  spec.threshold_us = 100;
  spec.window = 10;
  obs::SloTracker tracker(spec, /*registry=*/nullptr);
  for (int i = 0; i < 25; ++i) {
    EXPECT_FALSE(tracker.Observe(50.0));
  }
  const obs::SloStatus status = tracker.status();
  EXPECT_EQ(status.observed, 25);
  EXPECT_EQ(status.violations, 0);
  EXPECT_EQ(status.windows, 2);  // Two complete windows, five left over.
  EXPECT_EQ(status.breached_windows, 0);
  EXPECT_DOUBLE_EQ(status.burn_rate, 0.0);
}

TEST(SloTrackerTest, ErrorsConsumeBudgetRegardlessOfLatency) {
  obs::SloSpec spec;
  spec.name = "errors";
  spec.quantile = 0.5;  // Budget: half the window.
  spec.threshold_us = 1e9;
  spec.window = 4;
  obs::SloTracker tracker(spec, /*registry=*/nullptr);
  bool breached = false;
  for (int i = 0; i < 4; ++i) {
    breached = tracker.Observe(1.0, /*error=*/true);
  }
  EXPECT_TRUE(breached);  // 100% errors vs a 50% budget.
  EXPECT_EQ(tracker.status().violations, 4);
}

TEST(SloTrackerTest, SlidingBurnRateUpdatesBetweenWindowBoundaries) {
  obs::SloSpec spec;
  spec.name = "sliding";
  spec.quantile = 0.5;
  spec.threshold_us = 100;
  spec.window = 4;
  obs::SloTracker tracker(spec, /*registry=*/nullptr);
  for (int i = 0; i < 4; ++i) tracker.Observe(50.0);  // Healthy window.
  EXPECT_DOUBLE_EQ(tracker.status().burn_rate, 0.0);
  tracker.Observe(200.0);  // Mid-window violation slides the rate up.
  EXPECT_DOUBLE_EQ(tracker.status().burn_rate, 0.5);
  // But no new complete window has been counted yet.
  EXPECT_EQ(tracker.status().windows, 1);
}

// ---------------------------------------------------------------------------
// Snapshot quantiles and exporters.
// ---------------------------------------------------------------------------

TEST(SnapshotQuantilesTest, SummariesCarryApproximateQuantiles) {
  obs::StreamingHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Observe(100.0);
  histogram.Observe(100000.0);
  const obs::StreamingHistogram::Summary summary = histogram.GetSummary();
  // Power-of-two buckets: exact within a factor of 2 (upper edge).
  EXPECT_GE(summary.p50, 100.0);
  EXPECT_LE(summary.p50, 200.0);
  EXPECT_GE(summary.p99, 100.0);
  EXPECT_LE(summary.p99, 200.0);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_LE(summary.p95, summary.p99);
}

TEST(ExporterTest, PrometheusTextExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve/requests/total").Add(5);
  registry.GetGauge("serve/queue/depth").Set(2.0);
  for (int i = 0; i < 8; ++i) {
    registry.GetHistogram("serve/e2e/us").Observe(100.0);
  }
  const std::string text = obs::ToPrometheusText(registry.GetSnapshot());

  EXPECT_NE(text.find("# TYPE oodgnn_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_requests_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE oodgnn_serve_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE oodgnn_serve_e2e_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_e2e_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_e2e_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_e2e_us_sum 800\n"), std::string::npos);
  EXPECT_NE(text.find("oodgnn_serve_e2e_us_count 8\n"), std::string::npos);
}

TEST(ExporterTest, WriteMetricsJsonDumpsSnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve/requests/total").Add(3);
  registry.GetHistogram("serve/e2e/us").Observe(42.0);
  const std::string path = TempPath("metrics_dump.json");
  ASSERT_TRUE(obs::WriteMetricsJson(path, registry));
  std::string content;
  ASSERT_TRUE(ReadFileToString(path, &content));
  EXPECT_NE(content.find("\"ts_us\""), std::string::npos);
  EXPECT_NE(content.find("\"serve/requests/total\":3"), std::string::npos);
  EXPECT_NE(content.find("\"p50\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExporterTest, BackgroundExporterWritesBothFormatsAndFlushesOnStop) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve/requests/total").Add(7);
  const std::string prefix = TempPath("exporter");
  std::remove((prefix + ".prom").c_str());
  std::remove((prefix + ".jsonl").c_str());
  {
    obs::ExporterOptions options;
    options.output_prefix = prefix;
    options.interval_ms = 5;
    options.registry = &registry;
    obs::MetricsExporter exporter(options);
    exporter.ExportNow();
  }  // Destructor stops the thread and flushes a final export.

  std::string prom;
  ASSERT_TRUE(ReadFileToString(prefix + ".prom", &prom));
  EXPECT_NE(prom.find("oodgnn_serve_requests_total 7\n"), std::string::npos);

  std::string jsonl;
  ASSERT_TRUE(ReadFileToString(prefix + ".jsonl", &jsonl));
  EXPECT_NE(jsonl.find("\"serve/requests/total\":7"), std::string::npos);
  // Append-only stream: at least the explicit export plus the final
  // flush, each one JSON object per line.
  EXPECT_GE(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  std::remove((prefix + ".prom").c_str());
  std::remove((prefix + ".jsonl").c_str());
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

TEST(EngineTelemetryTest, TotalsReconcileUnderConcurrentSubmitters) {
  GraphDataset dataset = TinyDataset();
  const ModelSpec spec = TinySpec(dataset);
  std::vector<const Graph*> graphs;
  for (const Graph& graph : dataset.graphs) graphs.push_back(&graph);

  obs::MetricsRegistry registry;
  std::int64_t expected_batches = 0;
  {
    InferenceOptions options;
    options.num_workers = 2;
    options.max_batch_graphs = 4;
    options.max_batch_wait_us = 100;
    options.telemetry_registry = &registry;
    InferenceEngine engine(spec, options);

    const int kSubmitters = 4;
    std::vector<std::vector<std::future<Tensor>>> shards(kSubmitters);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (size_t i = static_cast<size_t>(s); i < graphs.size();
             i += kSubmitters) {
          shards[static_cast<size_t>(s)].push_back(engine.Submit(*graphs[i]));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    for (auto& shard : shards) {
      for (auto& future : shard) (void)future.get();
    }
    const InferenceStats stats = engine.stats();
    EXPECT_EQ(stats.requests, static_cast<std::int64_t>(graphs.size()));
    // RecordSpan runs before each promise resolves, so the per-phase
    // histograms already account for every request we waited on.
    EXPECT_EQ(stats.e2e_us.count, static_cast<std::int64_t>(graphs.size()));
    EXPECT_EQ(stats.queue_wait_us.count,
              static_cast<std::int64_t>(graphs.size()));
    EXPECT_EQ(stats.execute_us.count,
              static_cast<std::int64_t>(graphs.size()));
    expected_batches = stats.batches;
    EXPECT_GT(expected_batches, 0);
  }  // Engine destruction joins the workers: batch-level records quiesce.

  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  const std::int64_t n = static_cast<std::int64_t>(graphs.size());
  EXPECT_EQ(CounterValue(snapshot, "serve/requests/total"), n);
  EXPECT_EQ(CounterValue(snapshot, "serve/graphs/total"), n);
  EXPECT_EQ(HistogramCount(snapshot, "serve/queue_wait/us"), n);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch_build/us"), n);
  EXPECT_EQ(HistogramCount(snapshot, "serve/execute/us"), n);
  EXPECT_EQ(HistogramCount(snapshot, "serve/e2e/us"), n);
  EXPECT_EQ(CounterValue(snapshot, "serve/batches/total"), expected_batches);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch/graphs"),
            expected_batches);
  EXPECT_EQ(HistogramCount(snapshot, "serve/batch/nodes"), expected_batches);
  // Drained: nothing queued, nothing executing.
  EXPECT_EQ(GaugeValue(snapshot, "serve/queue/depth"), 0.0);
  EXPECT_EQ(GaugeValue(snapshot, "serve/inflight/batches"), 0.0);
}

TEST(EngineTelemetryTest, SubmitWithSpanCapturesOrderedTimestamps) {
  GraphDataset dataset = TinyDataset();
  const ModelSpec spec = TinySpec(dataset);
  obs::MetricsRegistry registry;
  InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 1;
  options.max_batch_wait_us = 0;
  options.telemetry_registry = &registry;
  InferenceEngine engine(spec, options);

  const Graph& graph = dataset.graphs[dataset.test_idx[0]];
  obs::RequestSpan first;
  obs::RequestSpan second;
  (void)engine.Submit(graph, &first).get();
  (void)engine.Submit(graph, &second).get();

  for (const obs::RequestSpan& span : {first, second}) {
    EXPECT_GT(span.enqueue_us, 0);
    EXPECT_LE(span.enqueue_us, span.admit_us);
    EXPECT_LE(span.admit_us, span.execute_us);
    EXPECT_LE(span.execute_us, span.done_us);
    EXPECT_GE(span.queue_wait_us(), 0);
    EXPECT_GE(span.batch_build_us(), 0);
    EXPECT_GE(span.execute_dur_us(), 0);
    EXPECT_EQ(span.queue_wait_us() + span.batch_build_us() +
                  span.execute_dur_us(),
              span.e2e_us());
  }
  EXPECT_EQ(first.request_id, 1);
  EXPECT_EQ(second.request_id, 2);
}

TEST(EngineTelemetryTest, SloBreachSurfacesInStats) {
  GraphDataset dataset = TinyDataset();
  const ModelSpec spec = TinySpec(dataset);
  obs::MetricsRegistry registry;
  InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 1;
  options.max_batch_wait_us = 0;
  options.telemetry_registry = &registry;
  obs::SloSpec impossible;
  impossible.name = "impossible_p99";
  impossible.threshold_us = 0;  // Any finished request violates.
  impossible.window = 4;
  options.slos = {impossible};
  InferenceEngine engine(spec, options);

  const Graph& graph = dataset.graphs[dataset.test_idx[0]];
  for (int i = 0; i < 8; ++i) (void)engine.Predict(graph);

  const InferenceStats stats = engine.stats();
  ASSERT_EQ(stats.slos.size(), 1u);
  EXPECT_EQ(stats.slos[0].name, "impossible_p99");
  EXPECT_EQ(stats.slos[0].status.observed, 8);
  EXPECT_EQ(stats.slos[0].status.violations, 8);
  EXPECT_EQ(stats.slos[0].status.windows, 2);
  EXPECT_EQ(stats.slos[0].status.breached_windows, 2);
  EXPECT_GT(stats.slos[0].status.burn_rate, 1.0);
  EXPECT_EQ(CounterValue(registry.GetSnapshot(),
                         "slo/impossible_p99/breached_windows"),
            2);
}

TEST(EngineTelemetryTest, SteadyStateStaysZeroAllocWithTelemetryOn) {
  GraphDataset dataset = TinyDataset();
  const ModelSpec spec = TinySpec(dataset);
  obs::MetricsRegistry registry;
  InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 1;
  options.max_batch_wait_us = 0;
  options.telemetry_registry = &registry;
  InferenceEngine engine(spec, options);

  const auto serve_split = [&] {
    for (size_t idx : dataset.test_idx) (void)engine.Predict(dataset.graphs[idx]);
  };
  serve_split();  // Grows the worker's arena to fit every test graph.
  const std::int64_t warm_allocs = engine.stats().heap_allocs;
  serve_split();
  serve_split();
  const auto expected = static_cast<std::int64_t>(3 * dataset.test_idx.size());
  const InferenceStats stats = engine.stats();
  // Always-on span/SLO recording adds zero tensor-heap traffic once the
  // worker's arena is warm.
  EXPECT_EQ(stats.heap_allocs, warm_allocs);
  EXPECT_EQ(stats.e2e_us.count, expected);
  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "serve/requests/total"), expected);
}

// ---------------------------------------------------------------------------
// SLO burn-rate window property test: the tracker's incremental
// sliding-window arithmetic against a naive reference ring, driven by
// randomized event streams.
// ---------------------------------------------------------------------------

TEST(SloPropertyTest, CountModeMatchesNaiveRingUnderRandomStreams) {
  // The burn rate equals the violating share of the last `window`
  // observations once the ring has filled.
  for (const uint64_t seed : {7u, 1234u}) {
    Rng rng(seed);
    obs::SloSpec spec;
    spec.name = "prop_count";
    spec.quantile = 0.8;
    spec.threshold_us = 1000.0;
    spec.window = 16;
    obs::SloTracker tracker(spec, /*registry=*/nullptr);
    std::deque<bool> ring;
    for (int step = 0; step < 500; ++step) {
      const bool violation = rng.Bernoulli(0.3);
      tracker.Observe(violation ? 2000.0 : 100.0);
      ring.push_back(violation);
      if (ring.size() > static_cast<size_t>(spec.window)) ring.pop_front();
      if (ring.size() == static_cast<size_t>(spec.window)) {
        std::int64_t violations = 0;
        for (const bool v : ring) violations += v ? 1 : 0;
        const double expected =
            (static_cast<double>(violations) / spec.window) /
            (1.0 - spec.quantile);
        ASSERT_NEAR(tracker.status().burn_rate, expected, 1e-12)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace oodgnn
