#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/inference.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/tensor/variable.h"
#include "src/train/checkpoint.h"
#include "src/train/trainer.h"
#include "src/util/file.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using serve::InferenceEngine;
using serve::InferenceOptions;
using serve::ModelSpec;
using test::ModuleCheckpoint;
using test::TempPath;

/// Small deterministic dataset shared by the equivalence tests.
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

/// Tape-based eval-mode logits for the whole split in one batch: the
/// bitwise reference every engine configuration must reproduce.
Tensor ReferenceLogits(GraphPredictionModel* model,
                       const std::vector<const Graph*>& graphs) {
  GraphBatch batch = GraphBatch::FromGraphs(graphs);
  Rng rng(999);
  return model->Predict(batch, /*training=*/false, &rng).value();
}

bool RowsBitwiseEqual(const Tensor& row, const Tensor& all, int r) {
  return row.cols() == all.cols() &&
         std::memcmp(row.data(), all.data() + static_cast<size_t>(r) * all.cols(),
                     static_cast<size_t>(all.cols()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// No-grad mode semantics.
// ---------------------------------------------------------------------------

TEST(NoGradTest, GuardDisablesTapeAndRestores) {
  EXPECT_TRUE(GradMode::Enabled());
  Variable a = Variable::Param(Tensor(2, 2, 1.f));
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradMode::Enabled());
    Variable out = Add(a, a);
    // The op result is a plain value: no parents, no grad requirement.
    EXPECT_FALSE(out.requires_grad());
    EXPECT_TRUE(out.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(out.node()->backward));
    {
      NoGradGuard nested;
      EXPECT_FALSE(GradMode::Enabled());
    }
    EXPECT_FALSE(GradMode::Enabled());  // Nested guard restores inner state.
  }
  EXPECT_TRUE(GradMode::Enabled());
  // Back in grad mode the same op builds a tape again.
  Variable out = Add(a, a);
  EXPECT_TRUE(out.requires_grad());
  EXPECT_EQ(out.node()->parents.size(), 2u);
}

TEST(NoGradTest, GradModeIsPerThread) {
  NoGradGuard guard;
  std::atomic<bool> other_thread_enabled{false};
  std::thread t([&] { other_thread_enabled = GradMode::Enabled(); });
  t.join();
  EXPECT_TRUE(other_thread_enabled);  // Fresh threads default to enabled.
  EXPECT_FALSE(GradMode::Enabled());
}

TEST(NoGradTest, ForwardValuesIdenticalWithAndWithoutTape) {
  GraphDataset dataset = TinyDataset();
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.train_idx) graphs.push_back(&dataset.graphs[idx]);
  GraphBatch batch = GraphBatch::FromGraphs(graphs);
  std::vector<Method> methods = AllMethods();
  for (Method m : ExtensionMethods()) methods.push_back(m);
  for (Method method : methods) {
    Rng rng(5);
    GraphPredictionModel model(method, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng);
    // Move every parameter and BatchNorm statistic off its init value.
    // At init −mean is −0, γ is 1 and β is 0, so a grad-free forward
    // that dropped or reordered those steps would still match.
    Rng perturb(11);
    for (Variable& param : model.Parameters()) {
      Tensor& value = param.mutable_value();
      for (int i = 0; i < value.size(); ++i) {
        value[i] += static_cast<float>(perturb.Uniform(-0.5, 0.5));
      }
    }
    for (Tensor* buffer : model.Buffers()) {  // Means and variances.
      for (int i = 0; i < buffer->size(); ++i) {
        (*buffer)[i] = static_cast<float>(perturb.Uniform(0.25, 2.0));
      }
    }
    for (bool use_simd : {true, false}) {
      SCOPED_TRACE(std::string(MethodName(method)) +
                   (use_simd ? " simd" : " scalar"));
      simd::ScopedSimdEnabled simd_mode(use_simd);
      Rng fwd1(1);
      Tensor taped = model.Predict(batch, /*training=*/false, &fwd1).value();
      Tensor gradfree;
      {
        NoGradGuard guard;
        Rng fwd2(1);
        gradfree = model.Predict(batch, /*training=*/false, &fwd2).value();
      }
      ASSERT_EQ(taped.size(), gradfree.size());
      EXPECT_EQ(std::memcmp(taped.data(), gradfree.data(),
                            static_cast<size_t>(taped.size()) * sizeof(float)),
                0);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel counters: eval must execute zero backward work.
// ---------------------------------------------------------------------------

TEST(NoGradTest, EvalRunsZeroBackwardKernels) {
  test::ScopedProfiling profiling(true);
  GraphDataset dataset = TinyDataset();

  // Kernel counters of one grad-free eval pass of `method`, checked for
  // backward work on the way.
  const auto eval_kernel_calls = [&](Method method) {
    obs::MetricsRegistry::Global().Reset();
    Rng rng(6);
    GraphPredictionModel model(method, TinyEncoder(dataset.feature_dim),
                               dataset.OutputDim(), &rng);
    Rng eval_rng(7);
    EvaluateSplit(&model, dataset, dataset.train_idx, /*batch_size=*/8,
                  &eval_rng);

    std::map<std::string, std::int64_t> calls;
    std::int64_t forward_calls = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::Global().GetSnapshot().counters) {
      if (name.rfind("kernel/", 0) == 0) calls[name] = value;
      // Backward-only kernels: transposed matmuls (weight/input grads),
      // softmax/segment/ReLU/Square backward passes, gradient
      // row-scatter and the broadcast-multiply/divide adjoints.
      const bool backward_kernel =
          name.rfind("kernel/matmul_ta/", 0) == 0 ||
          name.rfind("kernel/matmul_tb/", 0) == 0 ||
          name.rfind("kernel/softmax_rows_backward/", 0) == 0 ||
          name.rfind("kernel/gather_rows_acc/", 0) == 0 ||
          name.rfind("kernel/segment_extreme_backward/", 0) == 0 ||
          name.rfind("kernel/relu_backward/", 0) == 0 ||
          name.rfind("kernel/square_backward/", 0) == 0 ||
          name.rfind("kernel/mul_row_vec_acc/", 0) == 0 ||
          name.rfind("kernel/div_row_vec_acc/", 0) == 0 ||
          name.rfind("kernel/mul_col_vec_acc/", 0) == 0;
      if (backward_kernel) {
        EXPECT_EQ(value, 0) << name << " ran during grad-free "
                            << MethodName(method) << " eval";
      } else if (name.rfind("kernel/", 0) == 0) {
        forward_calls += value;
      }
    }
    EXPECT_GT(forward_calls, 0);  // The forward pass itself was counted.
    return calls;
  };

  // GIN's Linears apply bias, BatchNorm and ReLU in the matmul's store,
  // so none of those runs as a kernel of its own.
  std::map<std::string, std::int64_t> gin = eval_kernel_calls(Method::kGin);
  EXPECT_GT(gin["kernel/matmul/calls"], 0);
  for (const char* op : {"relu", "row_broadcast", "div_row_vec",
                         "mul_row_vec"}) {
    EXPECT_EQ(gin[std::string("kernel/") + op + "/calls"], 0) << op;
  }
  // GCN's BatchNorm and ReLU follow its aggregation, not a Linear, so
  // its ReLU stays a counted kernel.
  EXPECT_GT(eval_kernel_calls(Method::kGcn)["kernel/relu/calls"], 0);
}

// ---------------------------------------------------------------------------
// Engine equivalence: bitwise-identical to the tape-based forward for
// every encoder, across worker counts and submission orderings.
// ---------------------------------------------------------------------------

class EngineEquivalence : public ::testing::TestWithParam<Method> {};

TEST_P(EngineEquivalence, MatchesTapedForwardAcrossWorkerCounts) {
  const Method method = GetParam();
  GraphDataset dataset = TinyDataset();
  Rng rng(8);
  ModelSpec spec;
  spec.method = method;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(method, spec.encoder, spec.output_dim, &rng);

  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor reference = ReferenceLogits(&model, graphs);

  for (int workers : {1, 2, 8}) {
    InferenceOptions options;
    options.num_workers = workers;
    options.max_batch_graphs = 3;  // Forces several micro-batches.
    options.max_batch_wait_us = 50;
    InferenceEngine engine(spec, options);
    engine.SyncFrom(model);

    std::vector<std::future<Tensor>> futures;
    futures.reserve(graphs.size());
    for (const Graph* graph : graphs) futures.push_back(engine.Submit(*graph));
    for (size_t i = 0; i < futures.size(); ++i) {
      const Tensor row = futures[i].get();
      EXPECT_TRUE(RowsBitwiseEqual(row, reference, static_cast<int>(i)))
          << MethodName(method) << " graph " << i << " with " << workers
          << " workers";
    }
    const serve::InferenceStats stats = engine.stats();
    EXPECT_EQ(stats.requests, static_cast<std::int64_t>(graphs.size()));
    EXPECT_GT(stats.batches, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, EngineEquivalence,
    ::testing::ValuesIn([] {
      std::vector<Method> methods = AllMethods();
      for (Method m : ExtensionMethods()) methods.push_back(m);
      return methods;
    }()),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(InferenceEngineTest, ConcurrentSubmissionOrderingsAreBitwiseStable) {
  GraphDataset dataset = TinyDataset();
  Rng rng(9);
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);

  std::vector<const Graph*> graphs;
  for (const Graph& graph : dataset.graphs) graphs.push_back(&graph);
  const Tensor reference = ReferenceLogits(&model, graphs);

  // Several rounds with different submitter interleavings: results must
  // not depend on which requests land in which micro-batch.
  for (int round = 0; round < 3; ++round) {
    InferenceOptions options;
    options.num_workers = 4;
    options.max_batch_graphs = 4;
    options.max_batch_wait_us = 100;
    InferenceEngine engine(spec, options);
    engine.SyncFrom(model);

    const int kSubmitters = 4;
    std::vector<std::vector<std::pair<size_t, std::future<Tensor>>>> shards(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        // Shard s submits graphs s, s+K, s+2K, ... — a different global
        // interleaving every run, raced against the other submitters.
        for (size_t i = static_cast<size_t>(s); i < graphs.size();
             i += kSubmitters) {
          shards[static_cast<size_t>(s)].emplace_back(
              i, engine.Submit(*graphs[i]));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    for (auto& shard : shards) {
      for (auto& [index, future] : shard) {
        const Tensor row = future.get();
        EXPECT_TRUE(RowsBitwiseEqual(row, reference, static_cast<int>(index)))
            << "graph " << index << " round " << round;
      }
    }
  }
}

TEST(InferenceEngineTest, PredictConvenienceMatchesReference) {
  GraphDataset dataset = TinyDataset();
  Rng rng(10);
  ModelSpec spec;
  spec.method = Method::kGcn;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);
  std::vector<const Graph*> graphs = {&dataset.graphs[0]};
  const Tensor reference = ReferenceLogits(&model, graphs);

  InferenceEngine engine(spec, InferenceOptions{});
  engine.SyncFrom(model);
  const Tensor row = engine.Predict(dataset.graphs[0]);
  EXPECT_TRUE(RowsBitwiseEqual(row, reference, 0));
}

// ---------------------------------------------------------------------------
// Adversarial batches: single-node, edgeless, self-loop-only and large
// graphs mixed into random bursts. Engine outputs are batch-independent,
// so every row must equal its graph's single-graph reference bitwise.
// ---------------------------------------------------------------------------

class AdversarialBatches : public ::testing::TestWithParam<Method> {};

TEST_P(AdversarialBatches, RandomBurstsMatchPerGraphReferencesBitwise) {
  const Method method = GetParam();
  GraphDataset dataset = TinyDataset();
  Rng rng(8);
  ModelSpec spec;
  spec.method = method;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(method, spec.encoder, spec.output_dim, &rng);

  std::vector<Graph> extra;
  extra.emplace_back(1, dataset.feature_dim);  // Single node, no edges.
  extra.back().x.Fill(0.25f);
  extra.emplace_back(5, dataset.feature_dim);  // Multi-node, edgeless.
  extra.back().x.Fill(-1.f);
  extra.emplace_back(2, dataset.feature_dim);  // Self loops only.
  extra.back().x.Fill(0.75f);
  extra.back().AddEdge(0, 0);
  extra.back().AddEdge(1, 1);
  {
    Rng gen(31);
    Graph blob(40, dataset.feature_dim);  // Twice the dataset's largest.
    for (int v = 0; v < 40; ++v) {
      for (int f = 0; f < dataset.feature_dim; ++f) {
        blob.x.at(v, f) = static_cast<float>(gen.Uniform(-1.0, 1.0));
      }
      blob.AddUndirectedEdge(v, (v + 1) % 40);
      blob.AddUndirectedEdge(v, (v + 7) % 40);
    }
    extra.push_back(std::move(blob));
  }
  std::vector<const Graph*> pool;
  for (size_t idx : dataset.test_idx) pool.push_back(&dataset.graphs[idx]);
  for (const Graph& g : extra) pool.push_back(&g);
  std::vector<Tensor> references;
  for (const Graph* g : pool) references.push_back(ReferenceLogits(&model, {g}));

  InferenceOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 3;
  options.max_batch_wait_us = 50;
  InferenceEngine engine(spec, options);
  engine.SyncFrom(model);

  Rng order(91);
  for (int round = 0; round < 4; ++round) {
    std::vector<size_t> picks;
    std::vector<std::future<Tensor>> futures;
    const int burst = 1 + static_cast<int>(order.UniformInt(1, 8));
    for (int i = 0; i < burst; ++i) {
      picks.push_back(static_cast<size_t>(
          order.UniformInt(0, static_cast<int64_t>(pool.size()) - 1)));
      futures.push_back(engine.Submit(*pool[picks.back()]));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_TRUE(RowsBitwiseEqual(futures[i].get(), references[picks[i]], 0))
          << MethodName(method) << " round " << round << " request " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AdversarialBatches,
    ::testing::Values(Method::kGin, Method::kOodGnn, Method::kFactorGcn),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// ---------------------------------------------------------------------------
// Snapshot loading.
// ---------------------------------------------------------------------------

TEST(InferenceEngineTest, LoadCheckpointReproducesSourceModel) {
  GraphDataset dataset = TinyDataset();
  Rng rng(11);
  ModelSpec spec;
  spec.method = Method::kGinVirtual;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);
  // Perturb a batch-norm buffer so the test distinguishes "parameters
  // only" from "parameters + buffers": a load that dropped buffers
  // would produce different eval logits.
  std::vector<Tensor*> buffers = model.Buffers();
  ASSERT_FALSE(buffers.empty());
  for (Tensor* buffer : buffers) {
    for (int i = 0; i < buffer->size(); ++i) {
      (*buffer)[i] += 0.25f * static_cast<float>(i % 3);
    }
  }

  const std::string path = TempPath("serve_model_state.ckpt");
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(model, spec.method)));

  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.valid_idx) graphs.push_back(&dataset.graphs[idx]);
  const Tensor reference = ReferenceLogits(&model, graphs);

  InferenceOptions options;
  options.num_workers = 2;
  options.max_batch_graphs = 4;
  InferenceEngine engine(spec, options);
  ASSERT_TRUE(engine.LoadCheckpoint(path));
  std::vector<std::future<Tensor>> futures;
  for (const Graph* graph : graphs) futures.push_back(engine.Submit(*graph));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(
        RowsBitwiseEqual(futures[i].get(), reference, static_cast<int>(i)));
  }
  std::remove(path.c_str());
}

TEST(InferenceEngineTest, LoadCheckpointRejectsCorruptAndMismatchedFiles) {
  GraphDataset dataset = TinyDataset();
  Rng rng(12);
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);
  const std::string path = TempPath("serve_corrupt.ckpt");
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(model, spec.method)));
  std::string good;
  ASSERT_TRUE(ReadFileToString(path, &good));

  InferenceEngine engine(spec, InferenceOptions{});
  const Graph& graph = dataset.graphs[0];
  const Tensor before = engine.Predict(graph);
  const std::int64_t version = engine.stats().weight_version;
  // A rejected load publishes nothing: the engine keeps serving the
  // weights it had before the first attempt.
  const auto expect_rejected = [&](const std::string& file, const char* what) {
    EXPECT_FALSE(engine.LoadCheckpoint(file)) << what;
    EXPECT_EQ(engine.stats().weight_version, version) << what;
    const Tensor after = engine.Predict(graph);
    ASSERT_TRUE(after.SameShape(before)) << what;
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          static_cast<size_t>(before.size()) * sizeof(float)),
              0)
        << what;
  };

  // Flip one payload byte: the checksum must catch it.
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x5a);
  ASSERT_TRUE(WriteStringToFile(path, flipped));
  expect_rejected(path, "payload byte flipped");
  expect_rejected(path + ".does_not_exist", "missing file");

  // Shorter than the 24-byte framed header.
  ASSERT_TRUE(WriteStringToFile(path, good.substr(0, 3)));
  expect_rejected(path, "3-byte file");

  // The version field (bytes 4..7) rewritten to a version no loader
  // knows.
  std::string future_version = good;
  const uint32_t version_two = 2;
  std::memcpy(&future_version[4], &version_two, sizeof(version_two));
  ASSERT_TRUE(WriteStringToFile(path, future_version));
  expect_rejected(path, "version 2");

  // A checkpoint of another method is refused by its method tag, even
  // when it holds this model's tensors.
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(model, Method::kGcn)));
  expect_rejected(path, "other method");

  // A checkpoint of a different architecture must be rejected too.
  ModelSpec other = spec;
  other.encoder.hidden_dim = 16;
  Rng rng2(13);
  GraphPredictionModel bigger(other.method, other.encoder, other.output_dim,
                              &rng2);
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(bigger, other.method)));
  expect_rejected(path, "different architecture");
  std::remove(path.c_str());
}

TEST(InferenceEngineTest, LoadCheckpointRestoresTrainedWeights) {
  GraphDataset dataset = TinyDataset();
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.seed = 3;
  config.encoder = TinyEncoder(dataset.feature_dim);
  config.checkpoint_every = 1;
  config.checkpoint_dir = TempPath("serve_ckpt");
  TrainAndEvaluate(Method::kGin, dataset, config);
  const std::string path =
      CheckpointPath(config.checkpoint_dir, dataset.name,
                     MethodName(Method::kGin), config.seed);

  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = config.encoder;
  spec.encoder.feature_dim = dataset.feature_dim;
  spec.output_dim = dataset.OutputDim();

  InferenceEngine fresh(spec, InferenceOptions{});
  const Tensor untrained = fresh.Predict(dataset.graphs[0]);

  InferenceEngine engine(spec, InferenceOptions{});
  ASSERT_TRUE(engine.LoadCheckpoint(path));
  const Tensor trained = engine.Predict(dataset.graphs[0]);
  // Training moved the weights; the loaded engine must reflect that.
  EXPECT_NE(std::memcmp(untrained.data(), trained.data(),
                        static_cast<size_t>(trained.size()) * sizeof(float)),
            0);

  // Two engines loading the same checkpoint agree bitwise.
  InferenceEngine engine2(spec, InferenceOptions{});
  ASSERT_TRUE(engine2.LoadCheckpoint(path));
  const Tensor trained2 = engine2.Predict(dataset.graphs[0]);
  EXPECT_EQ(std::memcmp(trained.data(), trained2.data(),
                        static_cast<size_t>(trained.size()) * sizeof(float)),
            0);

  // Method mismatch is rejected.
  ModelSpec wrong = spec;
  wrong.method = Method::kGcn;
  InferenceEngine mismatched(wrong, InferenceOptions{});
  EXPECT_FALSE(mismatched.LoadCheckpoint(path));
}

TEST(InferenceEngineTest, LoadCheckpointRejectsMismatchedBufferShapes) {
  GraphDataset dataset = TinyDataset();
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.seed = 3;
  config.encoder = TinyEncoder(dataset.feature_dim);
  config.checkpoint_every = 1;
  config.checkpoint_dir = TempPath("serve_ckpt_buffers");
  TrainAndEvaluate(Method::kGin, dataset, config);
  const std::string path =
      CheckpointPath(config.checkpoint_dir, dataset.name,
                     MethodName(Method::kGin), config.seed);

  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = config.encoder;
  spec.encoder.feature_dim = dataset.feature_dim;
  spec.output_dim = dataset.OutputDim();
  InferenceEngine engine(spec, InferenceOptions{});
  ASSERT_TRUE(engine.LoadCheckpoint(path));
  const std::int64_t version = engine.stats().weight_version;
  const Tensor before = engine.Predict(dataset.graphs[0]);

  TrainState state;
  ASSERT_TRUE(LoadTrainState(path, &state));
  ASSERT_FALSE(state.buffers.empty());
  // Buffer 0 is a BatchNorm running statistic, one row wide.
  const Tensor& stat = state.buffers[0];
  ASSERT_EQ(stat.rows(), 1);
  ASSERT_GT(stat.cols(), 1);
  const std::vector<std::pair<const char*, int>> widths = {
      {"narrow.ckpt", stat.cols() - 1}, {"wide.ckpt", stat.cols() + 5}};
  for (const auto& [name, cols] : widths) {
    TrainState bad = state;
    bad.buffers[0] = Tensor(1, cols, 0.5f);
    const std::string bad_path = TempPath(name);
    ASSERT_TRUE(SaveTrainState(bad_path, bad));
    EXPECT_FALSE(engine.LoadCheckpoint(bad_path)) << name;
    EXPECT_EQ(engine.stats().weight_version, version) << name;
    const Tensor after = engine.Predict(dataset.graphs[0]);
    ASSERT_EQ(after.size(), before.size()) << name;
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          static_cast<size_t>(before.size()) * sizeof(float)),
              0)
        << name;
    std::remove(bad_path.c_str());
  }
}

// A model's state — parameters and buffers — round-trips through a
// checkpoint into a freshly initialized model.
TEST(ModelStateTest, RoundTripPreservesParametersAndBuffers) {
  GraphDataset dataset = TinyDataset();
  Rng rng(14);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  for (Tensor* buffer : model.Buffers()) {
    for (int i = 0; i < buffer->size(); ++i) (*buffer)[i] = 0.125f * i;
  }
  const std::string path = TempPath("model_state_rt.ckpt");
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(model, Method::kGin)));

  Rng rng2(15);
  GraphPredictionModel restored(Method::kGin,
                                TinyEncoder(dataset.feature_dim),
                                dataset.OutputDim(), &rng2);
  ASSERT_TRUE(LoadCheckpointWeights(path, Method::kGin, &restored));
  const std::vector<Variable> a = model.Parameters();
  const std::vector<Variable> b = restored.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a[i].value().data(), b[i].value().data(),
                          static_cast<size_t>(a[i].value().size()) *
                              sizeof(float)),
              0);
  }
  const std::vector<Tensor*> ba = model.Buffers();
  const std::vector<Tensor*> bb = restored.Buffers();
  ASSERT_EQ(ba.size(), bb.size());
  for (size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(std::memcmp(ba[i]->data(), bb[i]->data(),
                          static_cast<size_t>(ba[i]->size()) * sizeof(float)),
              0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oodgnn
