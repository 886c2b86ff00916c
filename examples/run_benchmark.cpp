// General-purpose command-line runner: train any of the nine methods on
// any of the fifteen benchmark datasets.
//
//   ./run_benchmark --dataset PROTEINS_25 --method OOD-GNN --epochs 20
//                   --seeds 3 --hidden 32 --layers 3 [--scale 1.0]
//
// Prints per-seed and aggregated metrics on every split.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/data/registry.h"
#include "src/graph/batch.h"
#include "src/serve/inference.h"
#include "src/tensor/variable.h"
#include "src/train/checkpoint.h"
#include "src/train/experiment.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace {

oodgnn::Method MethodFromName(const std::string& name) {
  for (oodgnn::Method method : oodgnn::AllMethods()) {
    if (name == oodgnn::MethodName(method)) return method;
  }
  std::fprintf(stderr, "unknown method '%s'; available:", name.c_str());
  for (oodgnn::Method method : oodgnn::AllMethods()) {
    std::fprintf(stderr, " %s", oodgnn::MethodName(method));
  }
  std::fprintf(stderr, "\n");
  std::exit(1);
}

/// `--serve` smoke mode: push the dataset's test split through the
/// grad-free InferenceEngine from several submitter threads and check
/// every returned row bitwise against a direct no-grad forward. The
/// model is the one a training run on the same flags builds (RunSeeds'
/// readout, TrainAndEvaluate's encoder), so `--model-file` can take
/// the checkpoint that run wrote. Returns the process exit code.
int RunServeSmoke(const oodgnn::GraphDataset& dataset, oodgnn::Method method,
                  const oodgnn::TrainConfig& train,
                  const oodgnn::Flags& flags) {
  oodgnn::EncoderConfig encoder = train.encoder;
  encoder.readout = oodgnn::RecommendedReadout(dataset.name);
  oodgnn::serve::ModelSpec spec;
  spec.method = method;
  spec.encoder = oodgnn::ModelEncoderConfig(method, dataset, encoder);
  spec.output_dim = dataset.OutputDim();
  // Binary/regression datasets carry one target per task on every graph.
  if (dataset.task_type != oodgnn::TaskType::kMulticlass) {
    spec.num_targets = dataset.num_tasks;
  }

  oodgnn::serve::InferenceOptions options;
  options.num_workers = flags.GetInt("workers", 2);
  options.max_batch_graphs = flags.GetInt("serve-batch", 16);
  options.max_batch_wait_us = flags.GetInt("serve-wait-us", 200);

  oodgnn::Rng model_rng(static_cast<uint64_t>(train.seed));
  oodgnn::GraphPredictionModel model(spec.method, spec.encoder,
                                     spec.output_dim, &model_rng);
  oodgnn::serve::InferenceEngine engine(spec, options);
  const std::string model_file = flags.GetString("model-file", "");
  if (!model_file.empty()) {
    // The reference model below reads the same checkpoint.
    if (!engine.LoadCheckpoint(model_file) ||
        !oodgnn::LoadCheckpointWeights(model_file, method, &model)) {
      std::fprintf(stderr, "failed to load checkpoint '%s'\n",
                   model_file.c_str());
      return 1;
    }
  } else {
    engine.SyncFrom(model);
  }

  std::vector<const oodgnn::Graph*> graphs;
  for (const size_t idx : dataset.test_idx) {
    graphs.push_back(&dataset.graphs[idx]);
  }
  if (graphs.empty()) {
    std::fprintf(stderr, "dataset has no test split to serve\n");
    return 1;
  }

  // Reference rows via a direct grad-free forward on the same weights.
  std::vector<oodgnn::Tensor> reference;
  {
    oodgnn::NoGradGuard no_grad;
    oodgnn::Rng eval_rng(1);
    for (const oodgnn::Graph* g : graphs) {
      reference.push_back(
          model.Predict(oodgnn::GraphBatch::FromGraphs({g}), false, &eval_rng)
              .value());
    }
  }

  const int submitters = 4;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::pair<size_t, std::future<oodgnn::Tensor>>>>
      futures(static_cast<size_t>(submitters));
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      for (size_t i = static_cast<size_t>(s); i < graphs.size();
           i += static_cast<size_t>(submitters)) {
        futures[static_cast<size_t>(s)].emplace_back(i,
                                                     engine.Submit(*graphs[i]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t mismatches = 0;
  for (auto& shard : futures) {
    for (auto& [i, future] : shard) {
      const oodgnn::Tensor row = future.get();
      const oodgnn::Tensor& want = reference[i];
      if (!row.SameShape(want) ||
          std::memcmp(row.data(), want.data(),
                      sizeof(float) * static_cast<size_t>(row.size())) != 0) {
        ++mismatches;
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const oodgnn::serve::InferenceStats stats = engine.stats();
  std::printf("serve smoke: %s, %zu test graphs, %d workers, batch<=%d, "
              "wait %d us\n",
              oodgnn::MethodName(method), graphs.size(), options.num_workers,
              options.max_batch_graphs, options.max_batch_wait_us);
  std::printf("  %lld requests in %lld batches, %.1f ms total "
              "(%.1f graphs/sec, %.1f us/graph)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches), seconds * 1e3,
              static_cast<double>(graphs.size()) / seconds,
              seconds * 1e6 / static_cast<double>(graphs.size()));
  std::printf("  bitwise vs direct no-grad forward: %s\n",
              mismatches == 0 ? "OK" : "DIVERGED");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  oodgnn::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: run_benchmark --dataset NAME --method NAME [--epochs N]\n"
        "       [--seeds N] [--hidden D] [--layers L] [--scale F]\n"
        "       [--batch N] [--lr F] [--threads N] [--verbose]\n"
        "       [--profile] [--trace-json=PATH]\n"
        "       [--checkpoint-every=N] [--checkpoint-dir=DIR] [--resume]\n"
        "       [--serve [--workers N] [--serve-batch N] [--serve-wait-us N]\n"
        "        [--model-file CKPT]]  (CKPT: a .ckpt that --checkpoint-every\n"
        "        wrote for the same dataset, method and model flags)\n"
        "datasets:");
    for (const std::string& name : oodgnn::AllDatasetNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }

  const std::string dataset_name =
      flags.GetString("dataset", "PROTEINS_25");
  const oodgnn::Method method =
      MethodFromName(flags.GetString("method", "OOD-GNN"));

  // Shared flag handling (threads, profiling, journal, checkpointing).
  oodgnn::BenchOptions options = oodgnn::BenchOptions::FromFlags(flags);
  // Keep this binary's historical default (the EncoderConfig default)
  // rather than the table binaries' 0.3.
  options.train.encoder.dropout =
      static_cast<float>(flags.GetDouble("dropout", 0.5));

  oodgnn::GraphDataset dataset = oodgnn::MakeDatasetByName(
      dataset_name, options.data_scale,
      static_cast<uint64_t>(flags.GetInt("seed", 17)));
  std::printf("%s: %zu graphs (%zu train / %zu valid / %zu test), %s\n",
              dataset.name.c_str(), dataset.graphs.size(),
              dataset.train_idx.size(), dataset.valid_idx.size(),
              dataset.test_idx.size(),
              oodgnn::TaskTypeName(dataset.task_type));

  if (flags.Has("serve")) {
    return RunServeSmoke(dataset, method, options.train, flags);
  }

  const int seeds = options.seeds;
  oodgnn::MethodScores scores =
      oodgnn::RunSeeds(method, dataset, options.train, seeds);

  const bool percent = dataset.task_type != oodgnn::TaskType::kRegression;
  std::printf("\n%s on %s over %d seed(s):\n",
              oodgnn::MethodName(method), dataset.name.c_str(), seeds);
  std::printf("  train: %s\n",
              oodgnn::FormatCell(scores.train, percent).c_str());
  std::printf("  valid: %s\n",
              oodgnn::FormatCell(scores.valid, percent).c_str());
  std::printf("  test:  %s\n",
              oodgnn::FormatCell(scores.test, percent).c_str());
  if (!scores.test2.empty()) {
    std::printf("  %s: %s\n", dataset.test2_name.c_str(),
                oodgnn::FormatCell(scores.test2, percent).c_str());
  }
  std::printf("  parameters: %lld, last run %.1fs\n",
              static_cast<long long>(scores.last_run.num_parameters),
              scores.last_run.train_seconds);
  return 0;
}
