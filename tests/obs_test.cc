#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/journal.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/tensor.h"
#include "src/train/trainer.h"
#include "src/util/file.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using test::ScopedProfiling;

/// Minimal recursive-descent JSON reader used to verify journal lines:
/// validates the full grammar subset the writer emits and flattens
/// scalars into a dotted-path → literal map ("a.b" → "3.5", strings
/// unquoted/unescaped).
class MiniJson {
 public:
  bool Parse(const std::string& text,
             std::map<std::string, std::string>* out) {
    text_ = &text;
    pos_ = 0;
    out_ = out;
    SkipSpace();
    if (!ParseValue("")) return false;
    SkipSpace();
    return pos_ == text.size();
  }

 private:
  bool ParseValue(const std::string& path) {
    SkipSpace();
    if (pos_ >= text_->size()) return false;
    const char c = (*text_)[pos_];
    if (c == '{') return ParseObject(path);
    if (c == '[') return ParseArray(path);
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      Emit(path, s);
      return true;
    }
    return ParseLiteral(path);
  }

  bool ParseObject(const std::string& path) {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Expect(':')) return false;
      const std::string child = path.empty() ? key : path + "." + key;
      if (!ParseValue(child)) return false;
      SkipSpace();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool ParseArray(const std::string& path) {
    ++pos_;  // '['
    SkipSpace();
    if (Peek(']')) return true;
    int index = 0;
    while (true) {
      if (!ParseValue(path + "[" + std::to_string(index++) + "]")) {
        return false;
      }
      SkipSpace();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_->size() || (*text_)[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_->size()) {
      const char c = (*text_)[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_->size()) return false;
        const char e = (*text_)[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_->size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = (*text_)[pos_++];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : std::tolower(h) - 'a' + 10);
            }
            out->push_back(static_cast<char>(code));  // ASCII escapes only
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseLiteral(const std::string& path) {
    const size_t start = pos_;
    while (pos_ < text_->size() &&
           std::string("-+.0123456789eEtruefalsn").find((*text_)[pos_]) !=
               std::string::npos) {
      ++pos_;
    }
    const std::string token = text_->substr(start, pos_ - start);
    if (token.empty()) return false;
    if (token == "true" || token == "false" || token == "null") {
      Emit(path, token);
      return true;
    }
    size_t consumed = 0;
    try {
      (void)std::stod(token, &consumed);
    } catch (...) {
      return false;
    }
    if (consumed != token.size()) return false;
    Emit(path, token);
    return true;
  }

  void Emit(const std::string& path, const std::string& value) {
    (*out_)[path] = value;
  }
  void SkipSpace() {
    while (pos_ < text_->size() &&
           std::isspace(static_cast<unsigned char>((*text_)[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < text_->size() && (*text_)[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string* text_ = nullptr;
  size_t pos_ = 0;
  std::map<std::string, std::string>* out_ = nullptr;
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

/// Trivially separable two-class dataset (mirrors train_test.cc).
GraphDataset EasyDataset(int per_class) {
  GraphDataset ds;
  ds.name = "easy";
  ds.num_tasks = 2;
  ds.feature_dim = 2;
  Rng rng(5);
  for (int i = 0; i < 2 * per_class; ++i) {
    const int label = i % 2;
    const int n = static_cast<int>(rng.UniformInt(4, 8));
    Graph g(n, 2);
    for (int v = 0; v < n; ++v) g.x.at(v, 0) = 1.f;
    if (label == 1) {
      for (int v = 0; v + 1 < n; ++v) g.AddUndirectedEdge(v, v + 1);
    }
    g.label = label;
    const size_t idx = ds.graphs.size();
    if (i < per_class) {
      ds.train_idx.push_back(idx);
    } else if (i < per_class * 3 / 2) {
      ds.valid_idx.push_back(idx);
    } else {
      ds.test_idx.push_back(idx);
    }
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

TrainConfig TinyConfig() {
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 16;
  config.lr = 5e-3f;
  config.encoder.hidden_dim = 8;
  config.encoder.num_layers = 2;
  config.encoder.dropout = 0.f;
  config.ood.weights.epochs_reweight = 5;
  return config;
}

/// Observation count of each training phase histogram an OOD-GNN
/// TrainAndEvaluate fills.
std::map<std::string, std::int64_t> TrainPhaseCounts() {
  std::map<std::string, std::int64_t> counts;
  for (const char* name :
       {"train/encode/us", "train/reweight/us", "train/loss_step/us",
        "train/eval/us", "core/compute_weights/us", "core/weight_optimize/us",
        "core/rff_transform/us", "core/decorrelation_loss/us"}) {
    counts[name] =
        obs::MetricsRegistry::Global().GetHistogram(name).GetSummary().count;
  }
  return counts;
}

// --- zero-overhead contract -------------------------------------------------
// These run first (gtest executes in declaration order): with profiling
// disabled, no kernel counter is ever registered. The empty-registry
// check stays first, before any phase scope registers its histogram.

TEST(ObsZeroOverheadTest, DisabledKernelsRegisterNoMetrics) {
  obs::SetProfilingEnabled(false);
  Tensor a(8, 8, 1.f);
  Tensor b(8, 8, 2.f);
  Tensor out(8, 8);
  GetBackend().MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
  GetBackend().Axpy(0.5f, a, &b);
  (void)GetBackend().Dot(a, b);
  EXPECT_EQ(obs::MetricsRegistry::Global().size(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::Global().GetSnapshot().counters.size(), 0u);
}

TEST(ObsZeroOverheadTest, UnprofiledRunRecordsTrainPhases) {
  ScopedProfiling guard(false);
  GraphDataset ds = EasyDataset(16);
  TrainConfig config = TinyConfig();
  config.epochs = 2;
  (void)TrainAndEvaluate(Method::kOodGnn, ds, config);
  // Phase scopes are always on...
  for (const auto& [name, count] : TrainPhaseCounts()) {
    EXPECT_GT(count, 0) << name;
  }
  // ...and the kernel counters stay unregistered.
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().GetSnapshot().counters) {
    EXPECT_NE(name.rfind("kernel/", 0), 0u) << name;
  }
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterSemantics) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add(5);
  counter.Increment();
  EXPECT_EQ(counter.value(), 6);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, CounterIsThreadSafe) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(MetricsTest, GaugeSemantics) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.Set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(MetricsTest, HistogramSummaryAndQuantile) {
  obs::StreamingHistogram histogram;
  EXPECT_EQ(histogram.GetSummary().count, 0);
  EXPECT_EQ(histogram.GetSummary().p50, 0.0);
  for (int v = 1; v <= 1000; ++v) histogram.Observe(static_cast<double>(v));
  const auto summary = histogram.GetSummary();
  EXPECT_EQ(summary.count, 1000);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 1000.0);
  EXPECT_DOUBLE_EQ(summary.sum, 1000.0 * 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(summary.mean(), 500.5);
  // Power-of-two buckets: the median estimate is exact within 2x.
  const double median = summary.p50;
  EXPECT_GE(median, 250.0);
  EXPECT_LE(median, 1024.0);
  histogram.Reset();
  EXPECT_EQ(histogram.GetSummary().count, 0);
}

TEST(MetricsTest, RegistryLookupIsIdempotentAndSnapshotSorted) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("zeta");
  obs::Counter& b = registry.GetCounter("zeta");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  registry.GetCounter("alpha").Add(1);
  registry.GetGauge("loss").Set(0.25);
  registry.GetHistogram("latency").Observe(10.0);
  EXPECT_EQ(registry.size(), 4u);

  const obs::MetricsSnapshot snapshot = registry.GetSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");  // map order = sorted
  EXPECT_EQ(snapshot.counters[1].first, "zeta");
  EXPECT_EQ(snapshot.counters[1].second, 3);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 0.25);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1);

  registry.Reset();
  EXPECT_EQ(registry.GetSnapshot().counters[1].second, 0);
  EXPECT_EQ(registry.size(), 4u);  // entries survive Reset

  const std::string table = snapshot.ToTableString();
  EXPECT_NE(table.find("zeta"), std::string::npos);
  EXPECT_NE(table.find("latency"), std::string::npos);

  std::map<std::string, std::string> parsed;
  EXPECT_TRUE(MiniJson().Parse(snapshot.ToJson(), &parsed));
  EXPECT_EQ(parsed["counters.zeta"], "3");
  EXPECT_EQ(parsed["histograms.latency.count"], "1");
}

// --- json -------------------------------------------------------------------

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(obs::JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(obs::JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(obs::JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, NumbersRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(obs::JsonNumber(0.5), "0.5");
  EXPECT_EQ(obs::JsonNumber(3.0), "3");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, ObjectWriterRoundTrips) {
  const std::string json =
      obs::JsonObjectWriter()
          .Put("name", "run \"A\"")
          .Put("epoch", 7)
          .Put("loss", 0.125)
          .Put("improved", true)
          .PutRaw("nested", obs::JsonObjectWriter().Put("x", 1).Build())
          .PutRaw("curve", "[1,0.5]")
          .Build();
  std::map<std::string, std::string> parsed;
  ASSERT_TRUE(MiniJson().Parse(json, &parsed)) << json;
  EXPECT_EQ(parsed["name"], "run \"A\"");
  EXPECT_EQ(parsed["epoch"], "7");
  EXPECT_EQ(parsed["loss"], "0.125");
  EXPECT_EQ(parsed["improved"], "true");
  EXPECT_EQ(parsed["nested.x"], "1");
  EXPECT_EQ(parsed["curve[0]"], "1");
  EXPECT_EQ(parsed["curve[1]"], "0.5");
}

// --- trace ------------------------------------------------------------------

TEST(TraceTest, NestedScopesRecordInclusiveTime) {
  ScopedProfiling guard(false);
  constexpr int kIterations = 3;
  for (int i = 0; i < kIterations; ++i) {
    OODGNN_TRACE_SCOPE("test/outer/us");
    {
      OODGNN_TRACE_SCOPE("test/inner/us");
      // A little real work so durations are nonzero on coarse clocks.
      volatile double sink = 0.0;
      for (int k = 0; k < 50000; ++k) sink = sink + static_cast<double>(k);
    }
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto outer = registry.GetHistogram("test/outer/us").GetSummary();
  const auto inner = registry.GetHistogram("test/inner/us").GetSummary();
  EXPECT_EQ(outer.count, kIterations);
  EXPECT_EQ(inner.count, kIterations);
  // Each outer span contains its inner span.
  EXPECT_GE(outer.sum, inner.sum);
  EXPECT_GE(outer.min, 0.0);
  EXPECT_GE(outer.max, outer.min);
  EXPECT_LE(outer.max, outer.sum);
}

TEST(TraceTest, ScopesOnWorkerThreadsMerge) {
  ScopedProfiling guard(false);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { OODGNN_TRACE_SCOPE("test/worker_phase/us"); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("test/worker_phase/us")
                .GetSummary()
                .count,
            kThreads);
}

TEST(TraceTest, EnabledKernelsRecordCounters) {
  ScopedProfiling guard(true);
  obs::MetricsRegistry::Global().Reset();
  Tensor a(4, 4, 1.f);
  Tensor b(4, 4, 2.f);
  Tensor out(4, 4);
  GetBackend().MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
  GetBackend().MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
  std::int64_t matmul_calls = 0;
  std::int64_t matmul_elems = 0;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().GetSnapshot().counters) {
    if (name == "kernel/matmul/calls") matmul_calls = value;
    if (name == "kernel/matmul/elems") matmul_elems = value;
  }
  EXPECT_EQ(matmul_calls, 2);
  EXPECT_EQ(matmul_elems, 2 * 16);
}

// --- journal ----------------------------------------------------------------

TEST(JournalTest, WritesParseableRoundTrippingLines) {
  const std::string path = testing::TempDir() + "/obs_journal_test.jsonl";
  {
    obs::RunJournal journal(path);
    ASSERT_TRUE(journal.ok());
    journal.WriteLine(obs::JsonObjectWriter()
                          .Put("event", "epoch")
                          .Put("epoch", 1)
                          .Put("loss", 0.75)
                          .Build());
    journal.WriteLine(obs::JsonObjectWriter()
                          .Put("event", "run_summary")
                          .Put("test_metric", 0.921875)
                          .Build());
  }
  std::string content;
  ASSERT_TRUE(ReadFileToString(path, &content));
  const std::vector<std::string> lines = SplitLines(content);
  ASSERT_EQ(lines.size(), 2u);
  std::map<std::string, std::string> first;
  std::map<std::string, std::string> second;
  ASSERT_TRUE(MiniJson().Parse(lines[0], &first)) << lines[0];
  ASSERT_TRUE(MiniJson().Parse(lines[1], &second)) << lines[1];
  EXPECT_EQ(first["event"], "epoch");
  EXPECT_EQ(first["epoch"], "1");
  EXPECT_EQ(first["loss"], "0.75");
  EXPECT_EQ(second["event"], "run_summary");
  EXPECT_EQ(second["test_metric"], "0.921875");  // exact double round-trip
}

TEST(JournalTest, UnwritablePathDropsRecordsInsteadOfAborting) {
  obs::RunJournal journal("/nonexistent-dir/journal.jsonl");
  EXPECT_FALSE(journal.ok());
  journal.WriteLine("{}");  // must not crash
}

// --- end-to-end: instrumentation does not change training -------------------

TEST(ObsIntegrationTest, ProfiledTrainingIsBitwiseIdentical) {
  GraphDataset ds = EasyDataset(24);
  const TrainConfig config = TinyConfig();

  obs::SetProfilingEnabled(false);
  obs::CloseGlobalJournal();
  const TrainResult baseline =
      TrainAndEvaluate(Method::kOodGnn, ds, config);

  const std::string path = testing::TempDir() + "/obs_profiled_run.jsonl";
  TrainResult profiled;
  {
    ScopedProfiling guard(true);
    obs::OpenGlobalJournal(path);
    profiled = TrainAndEvaluate(Method::kOodGnn, ds, config);
    obs::CloseGlobalJournal();
  }

  // Bitwise-identical results with instrumentation on.
  ASSERT_EQ(baseline.epoch_losses.size(), profiled.epoch_losses.size());
  for (size_t i = 0; i < baseline.epoch_losses.size(); ++i) {
    EXPECT_EQ(baseline.epoch_losses[i], profiled.epoch_losses[i]) << i;
  }
  EXPECT_EQ(baseline.train_metric, profiled.train_metric);
  EXPECT_EQ(baseline.valid_metric, profiled.valid_metric);
  EXPECT_EQ(baseline.test_metric, profiled.test_metric);
  ASSERT_EQ(baseline.final_weights.size(), profiled.final_weights.size());
  for (size_t i = 0; i < baseline.final_weights.size(); ++i) {
    EXPECT_EQ(baseline.final_weights[i], profiled.final_weights[i]) << i;
  }

  // The journal has one valid record per epoch plus the run summary.
  std::string content;
  ASSERT_TRUE(ReadFileToString(path, &content));
  const std::vector<std::string> lines = SplitLines(content);
  ASSERT_EQ(lines.size(), static_cast<size_t>(config.epochs) + 1);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::map<std::string, std::string> record;
    ASSERT_TRUE(MiniJson().Parse(lines[i], &record)) << lines[i];
    if (i + 1 < lines.size()) {
      EXPECT_EQ(record["event"], "epoch");
      EXPECT_EQ(record["epoch"], std::to_string(i + 1));
      EXPECT_EQ(record["dataset"], "easy");
      EXPECT_EQ(record["method"], "OOD-GNN");
      EXPECT_EQ(record["train_loss"],
                obs::JsonNumber(profiled.epoch_losses[i]));
      EXPECT_TRUE(record.count("valid_metric")) << lines[i];
      EXPECT_TRUE(record.count("epoch_seconds")) << lines[i];
      EXPECT_TRUE(record.count("examples_per_sec")) << lines[i];
      EXPECT_TRUE(record.count("decorrelation_loss")) << lines[i];
      EXPECT_TRUE(record.count("weight_mean")) << lines[i];
      EXPECT_TRUE(record.count("weight_std")) << lines[i];
    } else {
      EXPECT_EQ(record["event"], "run_summary");
      EXPECT_EQ(record["test_metric"],
                obs::JsonNumber(profiled.test_metric));
    }
  }
}

TEST(ObsIntegrationTest, ProfiledRunRecordsTrainPhases) {
  ScopedProfiling guard(true);
  obs::MetricsRegistry::Global().Reset();
  GraphDataset ds = EasyDataset(16);
  TrainConfig config = TinyConfig();
  config.epochs = 2;
  (void)TrainAndEvaluate(Method::kOodGnn, ds, config);
  for (const auto& [name, count] : TrainPhaseCounts()) {
    EXPECT_GT(count, 0) << name;
  }
  std::int64_t kernel_calls = 0;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().GetSnapshot().counters) {
    if (name == "kernel/matmul/calls") kernel_calls += value;
  }
  EXPECT_GT(kernel_calls, 0);
}

}  // namespace
}  // namespace oodgnn
