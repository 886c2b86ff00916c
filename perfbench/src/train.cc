// Training workloads: OOD-GNN (Method::kOodGnn, default OodGnnConfig)
// on a size-shifted dataset.
//
// Untraced run: times whole TrainAndEvaluate calls, eval included, as
// users run them, repeating the same seeded call until the measured
// phase is over. Every repeat must reproduce the first one's epoch-loss
// sequence bitwise.
//
// Traced run: two untraced TrainAndEvaluate calls (reference and
// baseline), then a replica of
// its loop (same dataset, config, RNG streams and schedule) assembled
// from the public calls of each layer, with a benchmark-side span
// around every call and the library's kernel counters switched on. The
// replica must reproduce the untraced epoch losses and test metric
// bitwise; its spans give the per-layer table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/ood_gnn.h"
#include "src/data/registry.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/tensor/arena.h"
#include "src/tensor/variable.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using oodgnn::GraphDataset;
using oodgnn::TrainConfig;

/// Per-layer metrics only the serving workload measures.
const char* const kServeOnlyMetrics[] = {
    "serve.e2e_us.p50",         "serve.e2e_us.p99",
    "serve.queue_wait_us.p50",  "serve.queue_wait_us.p99",
    "serve.batch_build_us.p50", "serve.batch_build_us.p99",
    "serve.execute_us.p50",     "serve.execute_us.p99",
    "serve.capacity_rps",
    "serve.batch_graphs_mean",  "serve.shed_share.quota",
    "serve.shed_share.deadline", "serve.shed_share.slo",
    "serve.shed_share.queue_full", "serve.sync_us",
    "serve.rollouts",           "gen.lateness_us.p99",
};

/// The trainer's configuration as users run it: library defaults
/// (batch 64, hidden 64, 3 layers, default OodGnnConfig) with the
/// dataset family's recommended readout, exactly as RunSeeds sets it.
/// Each call evaluates once, after its last epoch, so the work in a
/// call does not depend on how often a seed's validation improves.
TrainConfig MakeConfig(const GraphDataset& dataset,
                       const TrainOptions& options, std::uint64_t seed) {
  TrainConfig config;
  config.epochs = options.epochs;
  config.eval_every = options.epochs;
  config.seed = seed;
  config.encoder.readout = oodgnn::RecommendedReadout(dataset.name);
  return config;
}

bool SameSequence(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) {
                      return std::memcmp(&x, &y, sizeof(double)) == 0;
                    });
}

bool AllFinite(const std::vector<double>& values) {
  return !values.empty() &&
         std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// A JSON array of round-trippable numbers.
std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += oodgnn::obs::JsonNumber(values[i]);
  }
  return out + "]";
}

/// What the traced replica of TrainAndEvaluate observed.
struct TracedRun {
  std::vector<double> epoch_losses;
  double test_metric = -1.0;
  double last_decorrelation_loss = 0.0;  ///< Final epoch's mean.
  std::vector<double> step_us;
  std::vector<double> unattributed_us;
  std::vector<double> heap_allocs;
  double eval_us = 0.0;                  ///< All EvaluateSplit calls.
  int epochs = 0;
  /// Total self time per layer span name, over all steps.
  std::vector<std::pair<const char*, double>> layer_us;

  void AddLayer(const char* name, double us) {
    for (auto& [layer, total] : layer_us) {
      if (layer == name) {
        total += us;
        return;
      }
    }
    layer_us.emplace_back(name, us);
  }
  double Layer(const char* name) const {
    for (const auto& [layer, total] : layer_us) {
      if (std::string(layer) == name) return total;
    }
    return 0.0;
  }
};

/// The layer spans of one training step, in call order.
constexpr const char* kBatch = "graph.batch";
constexpr const char* kEncode = "gnn.encode";
constexpr const char* kReweight = "core.reweight";
constexpr const char* kHead = "gnn.head";
constexpr const char* kLoss = "nn.loss";
constexpr const char* kOptim = "nn.optim";
constexpr const char* kBackward = "tensor.backward";

/// Replays TrainAndEvaluate(kOodGnn, dataset, config) from public calls
/// with a span around each one (src/train/trainer.cc is the reference:
/// same RNG streams, construction order, shuffles, batch folding,
/// model selection and eval cadence).
TracedRun TracedTrain(const GraphDataset& dataset, const TrainConfig& config,
                      SpanLog* log) {
  using namespace oodgnn;
  TracedRun run;
  Rng rng(config.seed);
  Rng eval_rng(config.seed ^ 0x9E3779B97F4A7C15ull);
  EncoderConfig encoder_config = config.encoder;
  encoder_config.feature_dim = dataset.feature_dim;
  GraphPredictionModel model(Method::kOodGnn, encoder_config,
                             dataset.OutputDim(), &rng);
  Adam optimizer(model.Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                 config.weight_decay);
  OodGnnReweighter reweighter(model.representation_dim(), config.batch_size,
                              config.ood, &rng);

  const bool higher_better = HigherIsBetter(dataset.task_type);
  double best_valid = higher_better ? -1e30 : 1e30;
  std::vector<size_t> order = dataset.train_idx;
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t begin = 0; begin < order.size();
       begin += static_cast<size_t>(config.batch_size)) {
    ranges.emplace_back(begin, std::min(order.size(),
                                        begin + static_cast<size_t>(
                                                    config.batch_size)));
  }
  if (ranges.size() > 1 && ranges.back().second - ranges.back().first < 2) {
    ranges[ranges.size() - 2].second = ranges.back().second;
    ranges.pop_back();
  }

  std::int64_t step_id = 0;
  // Times one call as a child span of `parent` and books its duration
  // to the layer.
  const auto timed = [&](const char* name, int parent, auto&& call) {
    const int span = log->Begin(name, parent, step_id);
    call();
    const double us = static_cast<double>(log->End(span));
    run.AddLayer(name, us);
    return us;
  };
  const auto evaluate = [&](const std::vector<size_t>& split, int parent) {
    double metric = 0.0;
    run.eval_us += timed("train.eval", parent, [&] {
      metric = EvaluateSplit(&model, dataset, split, config.batch_size,
                             &eval_rng);
    });
    return metric;
  };

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const int epoch_span = log->Begin("train.epoch", -1, step_id);
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    double epoch_decor = 0.0;
    int num_batches = 0;
    for (const auto& [begin, end] : ranges) {
      if (end - begin < 2) continue;
      const std::int64_t allocs_before = TensorHeapAllocsThisThread();
      const int step_span = log->Begin("train.step", epoch_span, step_id);
      double layers_us = 0.0;
      GraphBatch batch;
      layers_us += timed(kBatch, step_span, [&] {
        batch = MakeBatch(dataset.graphs, order, begin, end);
      });
      Variable z;
      layers_us += timed(kEncode, step_span, [&] {
        z = model.Encode(batch, /*training=*/true, &rng);
      });
      std::vector<float> weights;
      if (epoch >= config.ood.warmup_epochs) {
        layers_us += timed(kReweight, step_span, [&] {
          weights = reweighter.ComputeWeights(z.value());
        });
        epoch_decor += reweighter.last_decorrelation_loss();
      }
      Variable logits;
      layers_us += timed(kHead, step_span, [&] {
        logits = model.Classify(z, /*training=*/true);
      });
      Variable loss;
      layers_us += timed(kLoss, step_span, [&] {
        loss = SoftmaxCrossEntropy(logits, batch.class_labels, weights);
      });
      layers_us += timed(kOptim, step_span, [&] { optimizer.ZeroGrad(); });
      layers_us += timed(kBackward, step_span, [&] { loss.Backward(); });
      layers_us += timed(kOptim, step_span, [&] { optimizer.Step(); });
      epoch_loss += static_cast<double>(loss.value()[0]);
      ++num_batches;
      // The step ends once its tape is released, as in the trainer.
      loss = Variable();
      logits = Variable();
      z = Variable();
      batch = GraphBatch();
      const double step_us = static_cast<double>(log->End(step_span));
      run.step_us.push_back(step_us);
      run.unattributed_us.push_back(step_us - layers_us);
      run.heap_allocs.push_back(static_cast<double>(
          TensorHeapAllocsThisThread() - allocs_before));
      ++step_id;
    }
    if (num_batches == 0) {
      log->End(epoch_span);
      continue;
    }
    run.epoch_losses.push_back(epoch_loss / num_batches);
    run.last_decorrelation_loss = epoch_decor / num_batches;

    const bool final_epoch = epoch + 1 == config.epochs;
    if ((epoch + 1) % config.eval_every == 0 || final_epoch) {
      const std::vector<size_t>& valid_split =
          dataset.valid_idx.empty() ? dataset.train_idx : dataset.valid_idx;
      const double valid_metric = evaluate(valid_split, epoch_span);
      const bool improved = higher_better ? valid_metric > best_valid
                                          : valid_metric < best_valid;
      if (improved) {
        best_valid = valid_metric;
        evaluate(dataset.train_idx, epoch_span);
        if (!dataset.test_idx.empty()) {
          run.test_metric = evaluate(dataset.test_idx, epoch_span);
        }
        if (!dataset.test2_idx.empty()) {
          evaluate(dataset.test2_idx, epoch_span);
        }
      }
    }
    log->End(epoch_span);
    ++run.epochs;
  }
  return run;
}

/// One set-up: dataset generation plus model, Adam and reweighter
/// construction, in seconds.
double SetupSeconds(const TrainOptions& options, std::uint64_t seed) {
  using namespace oodgnn;
  const std::int64_t t0 = NowUs();
  {
    GraphDataset dataset = MakeDatasetByName(options.dataset, 1.0, seed);
    const TrainConfig config = MakeConfig(dataset, options, seed);
    EncoderConfig encoder_config = config.encoder;
    encoder_config.feature_dim = dataset.feature_dim;
    Rng rng(config.seed);
    GraphPredictionModel model(Method::kOodGnn, encoder_config,
                               dataset.OutputDim(), &rng);
    Adam optimizer(model.Parameters(), config.lr);
    OodGnnReweighter reweighter(model.representation_dim(),
                                config.batch_size, config.ood, &rng);
  }
  return static_cast<double>(NowUs() - t0) * 1e-6;
}

}  // namespace

RunResult RunTrainWorkload(const CommonOptions& common,
                           const TrainOptions& options) {
  using namespace oodgnn;
  RunResult result;
  const GraphDataset dataset =
      MakeDatasetByName(options.dataset, 1.0, common.seed);
  result.Gate(dataset.task_type == TaskType::kMulticlass,
              "training workloads need a multiclass dataset");
  if (!result.correct) return result;
  const TrainConfig config = MakeConfig(dataset, options, common.seed);
  const double train_graphs = static_cast<double>(dataset.train_idx.size());

  // The first call is the reference every later call must reproduce.
  // A traced run makes a second call as its untraced baseline.
  // Untraced runs time their set-ups between calls (SetupDue).
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  TrainResult first;
  const std::int64_t phase_start = NowUs();
  const std::int64_t phase_end =
      phase_start + static_cast<std::int64_t>(common.seconds * 1e6);
  const int setup_repeats = common.trace ? 0 : common.setup_repeats;
  do {
    if (SetupDue(setup_s.size(), setup_repeats, phase_start,
                 common.seconds)) {
      setup_s.push_back(SetupSeconds(options, common.seed));
    }
    const std::int64_t t0 = NowUs();
    TrainResult run = TrainAndEvaluate(Method::kOodGnn, dataset, config);
    wall_s.push_back(static_cast<double>(NowUs() - t0) * 1e-6);
    ++result.attempted;
    bool ok = AllFinite(run.epoch_losses) &&
              static_cast<int>(run.epoch_losses.size()) == options.epochs;
    if (wall_s.size() == 1) {
      first = std::move(run);
    } else {
      ok = ok && SameSequence(run.epoch_losses, first.epoch_losses) &&
           run.test_metric == first.test_metric;
    }
    if (!ok) ++result.failed;
    result.Gate(ok, "finite epoch losses, identical across repeats of a seed");
  } while (wall_s.size() < 2 || (!common.trace && NowUs() < phase_end));
  while (static_cast<int>(setup_s.size()) < setup_repeats) {
    setup_s.push_back(SetupSeconds(options, common.seed));
  }

  result.info.emplace_back(
      "final_loss",
      obs::JsonNumber(first.epoch_losses.empty() ? 0.0
                                                 : first.epoch_losses.back()));
  result.info.emplace_back("test_acc", obs::JsonNumber(first.test_metric));
  result.info.emplace_back("epoch_losses", JsonArray(first.epoch_losses));
  result.info.emplace_back("repeat_s", JsonArray(wall_s));

  if (!common.trace) {
    // Host contention and throttling only ever slow a call down, so
    // throughput is taken from the fastest call (best of N).
    const double fastest_s = *std::min_element(wall_s.begin(), wall_s.end());
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", PeakRssMb()},
        {"graphs_per_s", train_graphs * options.epochs / fastest_s},
    };
    return result;
  }

  // Traced replica.
  SpanLog log;
  obs::SetProfilingEnabled(true);
  const auto counters_before = KernelCounters();
  const std::int64_t t0 = NowUs();
  const TracedRun traced = TracedTrain(dataset, config, &log);
  const double traced_s = static_cast<double>(NowUs() - t0) * 1e-6;
  const auto counters_after = KernelCounters();
  obs::SetProfilingEnabled(false);
  ++result.attempted;
  const bool same = SameSequence(traced.epoch_losses, first.epoch_losses) &&
                    traced.test_metric == first.test_metric;
  if (!same) ++result.failed;
  result.Gate(same, "traced replica reproduces TrainAndEvaluate bitwise");
  if (!common.trace_out.empty() && !log.WriteJsonl(common.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 common.trace_out.c_str());
  }

  const double steps = static_cast<double>(traced.step_us.size());
  const auto per_step = [&](const char* layer) {
    return steps > 0 ? traced.Layer(layer) / steps : 0.0;
  };
  MetricList& m = result.metrics;
  m = {
      {"graph.batch_us", per_step(kBatch)},
      {"gnn.encode_us", per_step(kEncode)},
      {"gnn.head_us", per_step(kHead)},
      {"core.reweight_us", per_step(kReweight)},
      {"core.decor_loss", traced.last_decorrelation_loss},
      {"nn.loss_us", per_step(kLoss)},
      {"nn.optim_us", per_step(kOptim)},
      {"tensor.backward_us", per_step(kBackward)},
      {"tensor.heap_allocs_per_step", Mean(traced.heap_allocs)},
  };
  AddKernelMetrics(counters_before, counters_after, &m);
  m.insert(m.end(), {
      {"train.step_us.p50", Quantile(traced.step_us, 0.5)},
      {"train.step_us.p95", Quantile(traced.step_us, 0.95)},
      {"train.eval_us", traced.epochs > 0 ? traced.eval_us / traced.epochs
                                          : 0.0},
      {"train.unattributed_us", Mean(traced.unattributed_us)},
      {"train.final_loss",
       traced.epoch_losses.empty() ? 0.0 : traced.epoch_losses.back()},
      {"train.test_acc", traced.test_metric},
  });
  for (const char* name : kServeOnlyMetrics) m.emplace_back(name, 0.0);
  m.emplace_back("trace.overhead_share", traced_s / wall_s.back() - 1.0);
  m.emplace_back("ops.failed_share",
                 static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted));
  return result;
}

}  // namespace perfbench
