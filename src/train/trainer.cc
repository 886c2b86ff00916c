#include "src/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "src/gnn/pna_conv.h"
#include "src/graph/batch.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/nn/serialize.h"
#include "src/obs/journal.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/ops.h"
#include "src/tensor/variable.h"
#include "src/train/checkpoint.h"
#include "src/train/metrics.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace oodgnn {
namespace {

/// Loss dispatch per task type (Eq. 6: ℓ is cross-entropy for
/// classification, MSE for regression).
Variable PredictionLoss(const Variable& logits, const GraphBatch& batch,
                        TaskType type, const std::vector<float>& weights) {
  switch (type) {
    case TaskType::kMulticlass:
      return SoftmaxCrossEntropy(logits, batch.class_labels, weights);
    case TaskType::kBinary:
      return BceWithLogits(logits, batch.targets, batch.target_mask, weights);
    case TaskType::kRegression:
      return MseLoss(logits, batch.targets, weights);
  }
  OODGNN_CHECK(false);
  return Variable();
}

/// Collects model outputs over a split (eval mode, batched). Runs
/// grad-free — no tape, no backward closures — and asserts that the
/// eval-mode forward never draws from `rng`, so callers may pass any
/// Rng without perturbing its stream.
Tensor PredictSplit(GraphPredictionModel* model, const GraphDataset& dataset,
                    const std::vector<size_t>& indices, int batch_size,
                    Rng* rng, std::vector<int>* labels, Tensor* targets,
                    Tensor* mask) {
  NoGradGuard no_grad;
  const Mt19937_64 rng_before = rng->engine();
  Tensor all_logits(static_cast<int>(indices.size()), model->output_dim());
  if (targets->empty() && dataset.task_type != TaskType::kMulticlass) {
    *targets = Tensor(static_cast<int>(indices.size()), dataset.num_tasks);
    *mask = Tensor(static_cast<int>(indices.size()), dataset.num_tasks, 1.f);
  }
  int row = 0;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(indices.size(), begin + static_cast<size_t>(batch_size));
    GraphBatch batch = MakeBatch(dataset.graphs, indices, begin, end);
    Variable logits = model->Predict(batch, /*training=*/false, rng);
    GetBackend().CopyRowsTo(logits.value(), &all_logits, row);
    for (int r = 0; r < logits.rows(); ++r) {
      if (dataset.task_type == TaskType::kMulticlass) {
        labels->push_back(batch.class_labels[static_cast<size_t>(r)]);
      } else {
        for (int t = 0; t < dataset.num_tasks; ++t) {
          targets->at(row + r, t) = batch.targets.at(r, t);
          mask->at(row + r, t) = batch.target_mask.at(r, t);
        }
      }
    }
    row += logits.rows();
  }
  OODGNN_CHECK(rng->engine() == rng_before)
      << "eval-mode Predict consumed randomness";
  return all_logits;
}

/// Everything the checkpoint subsystem snapshots, gathered in one place
/// so capture and restore cannot drift apart.
struct RunState {
  Method method;
  const GraphDataset* dataset;
  const TrainConfig* config;
  GraphPredictionModel* model;
  Adam* optimizer;
  OodGnnReweighter* reweighter;  // null for baselines
  Rng* rng;
  std::vector<size_t>* order;
  double* best_valid;
  TrainResult* result;
};

TrainState CaptureState(const RunState& run, int next_epoch) {
  TrainState state;
  state.dataset_name = run.dataset->name;
  state.method = static_cast<uint32_t>(run.method);
  state.seed = run.config->seed;
  state.epochs = static_cast<uint32_t>(run.config->epochs);
  state.batch_size = static_cast<uint32_t>(run.config->batch_size);
  state.next_epoch = static_cast<uint32_t>(next_epoch);
  state.rng_state = run.rng->SaveState();
  state.order.assign(run.order->begin(), run.order->end());
  for (const Variable& param : run.model->Parameters()) {
    state.params.push_back(param.value());
  }
  state.optimizer = run.optimizer->GetState();
  for (const Tensor* buffer : run.model->Buffers()) {
    state.buffers.push_back(*buffer);
  }
  if (run.reweighter != nullptr) {
    const GlobalWeightBank& bank = run.reweighter->bank();
    state.has_bank = true;
    state.bank_initialized = bank.initialized();
    state.bank_gammas = bank.gammas();
    state.bank_z = bank.z_groups();
    state.bank_w = bank.w_groups();
  }
  state.best_valid = *run.best_valid;
  state.train_metric = run.result->train_metric;
  state.valid_metric = run.result->valid_metric;
  state.test_metric = run.result->test_metric;
  state.test2_metric = run.result->test2_metric;
  state.epoch_losses = run.result->epoch_losses;
  state.epoch_decorrelation_losses = run.result->epoch_decorrelation_losses;
  state.final_weights = run.result->final_weights;
  state.final_weight_graphs.assign(run.result->final_weight_graphs.begin(),
                                   run.result->final_weight_graphs.end());
  return state;
}

/// Applies a snapshot loaded from `path` to freshly constructed
/// training objects. Every structural property is validated against the
/// live run before anything is mutated; a false return means "ignore
/// the checkpoint and start fresh" and leaves the run untouched.
bool RestoreFromState(const std::string& path, const TrainState& state,
                      const RunState& run) {
  if (state.dataset_name != run.dataset->name ||
      state.method != static_cast<uint32_t>(run.method) ||
      state.seed != run.config->seed ||
      state.epochs != static_cast<uint32_t>(run.config->epochs) ||
      state.batch_size != static_cast<uint32_t>(run.config->batch_size)) {
    OODGNN_LOG(Warning) << "checkpoint was written by a different run "
                        << "(dataset/method/seed/epochs/batch mismatch)";
    return false;
  }
  // The saved order must be a permutation of this dataset's train split.
  if (state.order.size() != run.order->size()) return false;
  {
    std::vector<uint64_t> saved = state.order;
    std::vector<uint64_t> expected(run.order->begin(), run.order->end());
    std::sort(saved.begin(), saved.end());
    std::sort(expected.begin(), expected.end());
    if (saved != expected) {
      OODGNN_LOG(Warning)
          << "checkpoint train order does not match the dataset split";
      return false;
    }
  }
  if (!MatchesModuleShapes(path, *run.model, state.params, state.buffers)) {
    return false;
  }
  if (state.has_bank != (run.reweighter != nullptr)) return false;
  // Validate Adam's slot layout here so the mutation phase below cannot
  // fail halfway and leave the fresh-start fallback corrupted.
  if (!run.optimizer->Accepts(state.optimizer)) {
    OODGNN_LOG(Warning) << "checkpoint optimizer state is incompatible";
    return false;
  }
  if (run.reweighter != nullptr &&
      state.bank_gammas != run.reweighter->bank().gammas()) {
    OODGNN_LOG(Warning) << "checkpoint weight bank is incompatible";
    return false;
  }
  Rng restored_rng(0);
  if (!restored_rng.LoadState(state.rng_state)) {
    OODGNN_LOG(Warning) << "checkpoint RNG state is malformed";
    return false;
  }

  // Validation passed — apply everything.
  if (run.reweighter != nullptr &&
      !run.reweighter->mutable_bank()->RestoreGroups(
          state.bank_z, state.bank_w, state.bank_initialized)) {
    OODGNN_LOG(Warning) << "checkpoint weight bank is incompatible";
    return false;
  }
  run.optimizer->SetState(state.optimizer);
  ApplyModuleState(state.params, state.buffers, run.model);
  *run.rng = restored_rng;
  run.order->assign(state.order.begin(), state.order.end());
  *run.best_valid = state.best_valid;
  run.result->train_metric = state.train_metric;
  run.result->valid_metric = state.valid_metric;
  run.result->test_metric = state.test_metric;
  run.result->test2_metric = state.test2_metric;
  run.result->epoch_losses = state.epoch_losses;
  run.result->epoch_decorrelation_losses = state.epoch_decorrelation_losses;
  run.result->final_weights = state.final_weights;
  run.result->final_weight_graphs.assign(state.final_weight_graphs.begin(),
                                         state.final_weight_graphs.end());
  return true;
}

}  // namespace

EncoderConfig ModelEncoderConfig(Method method, const GraphDataset& dataset,
                                 const EncoderConfig& base) {
  EncoderConfig encoder = base;
  encoder.feature_dim = dataset.feature_dim;
  if (method == Method::kPna) {
    std::vector<const Graph*> train_graphs;
    for (size_t idx : dataset.train_idx) {
      train_graphs.push_back(&dataset.graphs[idx]);
    }
    encoder.pna_delta = ComputePnaDelta(train_graphs);
  }
  return encoder;
}

bool HigherIsBetter(TaskType type) {
  return type != TaskType::kRegression;
}

double EvaluateSplit(GraphPredictionModel* model, const GraphDataset& dataset,
                     const std::vector<size_t>& indices, int batch_size,
                     Rng* rng) {
  OODGNN_TRACE_SCOPE("train/eval/us");
  OODGNN_CHECK(!indices.empty());
  std::vector<int> labels;
  Tensor targets;
  Tensor mask;
  Tensor logits = PredictSplit(model, dataset, indices, batch_size, rng,
                               &labels, &targets, &mask);
  switch (dataset.task_type) {
    case TaskType::kMulticlass:
      return Accuracy(logits, labels);
    case TaskType::kBinary:
      return MultiTaskRocAuc(logits, targets, mask);
    case TaskType::kRegression:
      return Rmse(logits, targets, mask);
  }
  OODGNN_CHECK(false);
  return 0.0;
}

TrainResult TrainAndEvaluate(Method method, const GraphDataset& dataset,
                             const TrainConfig& config) {
  OODGNN_CHECK(!dataset.train_idx.empty());
  OODGNN_CHECK_GE(config.eval_every, 1);
  Timer timer;
  Rng rng(config.seed);
  // Evaluation gets its own stream derived straight from the seed, not
  // one seeded by a draw from `rng`, which would consume training draws.
  // Eval-mode forwards draw nothing anyway — PredictSplit asserts it —
  // but isolating the streams makes "mid-run eval cannot perturb
  // training" structural rather than incidental.
  Rng eval_rng(config.seed ^ 0x9E3779B97F4A7C15ull);

  GraphPredictionModel model(
      method, ModelEncoderConfig(method, dataset, config.encoder),
      dataset.OutputDim(), &rng);
  Adam optimizer(model.Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                 config.weight_decay);

  std::unique_ptr<OodGnnReweighter> reweighter;
  if (method == Method::kOodGnn) {
    reweighter = std::make_unique<OodGnnReweighter>(
        model.representation_dim(), config.batch_size, config.ood, &rng);
  }

  TrainResult result;
  result.num_parameters = model.NumParameters();

  const bool higher_better = HigherIsBetter(dataset.task_type);
  double best_valid = higher_better ? -1e30 : 1e30;

  std::vector<size_t> order = dataset.train_idx;

  obs::RunJournal* journal = obs::GlobalJournal();

  // Fault tolerance: resolve the snapshot file for this (dataset,
  // method, seed) run, restore an existing snapshot when resuming, and
  // make sure the checkpoint directory exists before the first save.
  const RunState run{method,      &dataset,         &config, &model,
                     &optimizer,  reweighter.get(), &rng,    &order,
                     &best_valid, &result};
  std::string checkpoint_path;
  if (config.checkpoint_every > 0 || config.resume) {
    checkpoint_path = CheckpointPath(config.checkpoint_dir, dataset.name,
                                     MethodName(method), config.seed);
  }
  int start_epoch = 0;
  if (config.resume && FileExists(checkpoint_path)) {
    TrainState state;
    if (LoadTrainState(checkpoint_path, &state) &&
        RestoreFromState(checkpoint_path, state, run)) {
      start_epoch = static_cast<int>(state.next_epoch);
      OODGNN_LOG(Info) << dataset.name << " [" << MethodName(method)
                       << "]: resumed from " << checkpoint_path
                       << " after epoch " << start_epoch << "/"
                       << config.epochs;
      if (journal != nullptr) {
        journal->WriteLine(obs::JsonObjectWriter()
                               .Put("event", "resume")
                               .Put("dataset", dataset.name)
                               .Put("method", MethodName(method))
                               .Put("seed",
                                    static_cast<std::int64_t>(config.seed))
                               .Put("restored_epoch", start_epoch)
                               .Put("epochs", config.epochs)
                               .Put("checkpoint", checkpoint_path)
                               .Build());
      }
    } else {
      OODGNN_LOG(Warning) << dataset.name << " [" << MethodName(method)
                          << "]: cannot resume from " << checkpoint_path
                          << "; starting fresh";
    }
  }
  if (config.checkpoint_every > 0) EnsureDirectory(config.checkpoint_dir);

  // Mini-batch row ranges over the shuffled order. A trailing batch
  // with fewer than 2 graphs carries no pairwise dependence signal, so
  // instead of silently dropping it every epoch it is folded into the
  // previous batch (the weight bank already ignores off-size batches).
  std::vector<std::pair<size_t, size_t>> batch_ranges;
  for (size_t begin = 0; begin < order.size();
       begin += static_cast<size_t>(config.batch_size)) {
    batch_ranges.emplace_back(
        begin,
        std::min(order.size(), begin + static_cast<size_t>(config.batch_size)));
  }
  if (batch_ranges.size() > 1 &&
      batch_ranges.back().second - batch_ranges.back().first < 2) {
    batch_ranges[batch_ranges.size() - 2].second = batch_ranges.back().second;
    batch_ranges.pop_back();
    OODGNN_LOG(Info) << dataset.name
                     << ": trailing mini-batch of 1 graph folded into the "
                        "previous batch (batch_size="
                     << config.batch_size << ")";
  }

  const int crash_after_epoch = CrashAfterEpochFromEnv();
  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    Timer epoch_timer;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    double epoch_decor = 0.0;
    int num_batches = 0;
    std::int64_t epoch_examples = 0;
    std::vector<double> epoch_weights;
    const bool final_epoch = epoch + 1 == config.epochs;

    for (const auto& [begin, end] : batch_ranges) {
      if (end - begin < 2) {
        // Unfoldable: the whole training split is a single graph.
        OODGNN_LOG_EVERY_N(Warning, 50)
            << dataset.name << ": skipping mini-batch of "
            << end - begin << " graph(s); need at least 2 to train";
        continue;
      }
      GraphBatch batch = MakeBatch(dataset.graphs, order, begin, end);

      // Algorithm 1 line 3: forward to representations.
      Variable z = [&] {
        OODGNN_TRACE_SCOPE("train/encode/us");
        return model.Encode(batch, /*training=*/true, &rng);
      }();

      // Lines 4–8: learn the sample weights on detached representations
      // (after a short warmup during which the encoder settles).
      std::vector<float> weights;
      if (reweighter && epoch >= config.ood.warmup_epochs) {
        OODGNN_TRACE_SCOPE("train/reweight/us");
        weights = reweighter->ComputeWeights(z.value());
        epoch_decor += reweighter->last_decorrelation_loss();
        if (journal != nullptr) {
          epoch_weights.insert(epoch_weights.end(), weights.begin(),
                               weights.end());
        }
        if (final_epoch) {
          result.final_weights.insert(result.final_weights.end(),
                                      weights.begin(), weights.end());
          result.final_weight_graphs.insert(result.final_weight_graphs.end(),
                                            order.begin() + begin,
                                            order.begin() + end);
        }
      }

      // Line 9: weighted prediction loss, backprop, update Φ and R.
      {
        OODGNN_TRACE_SCOPE("train/loss_step/us");
        Variable logits = model.Classify(z, /*training=*/true);
        Variable loss =
            PredictionLoss(logits, batch, dataset.task_type, weights);
        optimizer.ZeroGrad();
        loss.Backward();
        optimizer.Step();
        epoch_loss += static_cast<double>(loss.value()[0]);
      }
      epoch_examples += static_cast<std::int64_t>(end - begin);
      ++num_batches;
    }
    if (num_batches == 0) continue;
    result.epoch_losses.push_back(epoch_loss / num_batches);
    if (reweighter) {
      result.epoch_decorrelation_losses.push_back(epoch_decor / num_batches);
      // HSIC drift gauge: the epoch-mean statistical dependence among
      // representation dimensions (the quantity Algorithm 1 drives
      // down). Exporters scraping the global registry can watch
      // decorrelation progress live alongside the serving metrics.
      obs::MetricsRegistry::Global()
          .GetGauge("core/hsic/last_value")
          .Set(result.epoch_decorrelation_losses.back());
    }
    const double train_phase_seconds = epoch_timer.ElapsedSeconds();

    // Model selection on the validation split (falls back to train),
    // every eval_every-th epoch plus the final one. Eval runs grad-free
    // on the independent eval_rng, so skipping or adding evaluations
    // leaves the training trajectory bitwise unchanged.
    const bool do_eval =
        (epoch + 1) % config.eval_every == 0 || final_epoch;
    double valid_metric = 0.0;
    bool improved = false;
    if (do_eval) {
      const std::vector<size_t>& valid_split =
          dataset.valid_idx.empty() ? dataset.train_idx : dataset.valid_idx;
      valid_metric = EvaluateSplit(&model, dataset, valid_split,
                                   config.batch_size, &eval_rng);
      improved = higher_better ? valid_metric > best_valid
                               : valid_metric < best_valid;
      if (improved) {
        best_valid = valid_metric;
        result.valid_metric = valid_metric;
        result.train_metric = EvaluateSplit(
            &model, dataset, dataset.train_idx, config.batch_size, &eval_rng);
        if (!dataset.test_idx.empty()) {
          result.test_metric = EvaluateSplit(
              &model, dataset, dataset.test_idx, config.batch_size, &eval_rng);
        }
        if (!dataset.test2_idx.empty()) {
          result.test2_metric = EvaluateSplit(
              &model, dataset, dataset.test2_idx, config.batch_size,
              &eval_rng);
        }
      }
    }
    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    const double examples_per_sec =
        train_phase_seconds > 0.0
            ? static_cast<double>(epoch_examples) / train_phase_seconds
            : 0.0;
    if (config.verbose) {
      std::ostringstream line;
      line << dataset.name << " [" << MethodName(method) << "] epoch "
           << epoch + 1 << "/" << config.epochs
           << " loss=" << result.epoch_losses.back();
      if (do_eval) line << " valid=" << valid_metric;
      line << " time=" << epoch_seconds << "s (" << examples_per_sec
           << " ex/s)";
      OODGNN_LOG(Info) << line.str();
    }
    if (journal != nullptr) {
      obs::JsonObjectWriter record;
      record.Put("event", "epoch")
          .Put("dataset", dataset.name)
          .Put("method", MethodName(method))
          .Put("seed", static_cast<std::int64_t>(config.seed))
          .Put("epoch", epoch + 1)
          .Put("epochs", config.epochs)
          .Put("train_loss", result.epoch_losses.back())
          .Put("epoch_seconds", epoch_seconds)
          .Put("examples_per_sec", examples_per_sec);
      if (do_eval) {
        record.Put("valid_metric", valid_metric).Put("improved", improved);
      }
      if (reweighter) {
        record.Put("decorrelation_loss",
                   result.epoch_decorrelation_losses.back());
      }
      if (!epoch_weights.empty()) {
        // Weight-distribution stats (the Fig. 4 signal, per epoch).
        const auto [min_it, max_it] =
            std::minmax_element(epoch_weights.begin(), epoch_weights.end());
        record.Put("weight_mean", Mean(epoch_weights))
            .Put("weight_std", StdDev(epoch_weights))
            .Put("weight_min", *min_it)
            .Put("weight_max", *max_it);
      }
      journal->WriteLine(record.Build());
    }
    if (config.checkpoint_every > 0 &&
        (epoch + 1) % config.checkpoint_every == 0) {
      if (!SaveTrainState(checkpoint_path, CaptureState(run, epoch + 1))) {
        OODGNN_LOG(Warning) << "failed to write checkpoint "
                            << checkpoint_path;
      }
    }
    // Fault injection: simulate the process dying right after this
    // epoch (and its scheduled checkpoint, if any) completed.
    if (epoch + 1 == crash_after_epoch) CrashNow("OODGNN_CRASH_AFTER_EPOCH");
  }

  result.train_seconds = timer.ElapsedSeconds();

  if (journal != nullptr) {
    // Final run record: best-epoch metrics. Phase and kernel timings
    // live in the metrics registry, not here.
    obs::JsonObjectWriter record;
    record.Put("event", "run_summary")
        .Put("dataset", dataset.name)
        .Put("method", MethodName(method))
        .Put("seed", static_cast<std::int64_t>(config.seed))
        .Put("train_metric", result.train_metric)
        .Put("valid_metric", result.valid_metric)
        .Put("test_metric", result.test_metric)
        .Put("test2_metric", result.test2_metric)
        .Put("num_parameters", result.num_parameters)
        .Put("train_seconds", result.train_seconds);
    journal->WriteLine(record.Build());
  }
  return result;
}

}  // namespace oodgnn
