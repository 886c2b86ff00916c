// Determinism oracle (DESIGN.md §8): every method in the model zoo, on
// a tiny instance of every dataset family, is trained, checkpointed and
// served under each of the eight execution configs
//   {backend threads 1, 4} × {SIMD on, off} × {kernel counters on, off},
// set in-process, and every output must equal the (1 thread, scalar,
// counters off) reference bitwise: the final checkpoint's bytes, the
// TrainResult curves and metrics, and the test split's logits from a
// direct no-grad forward and from a 2-worker InferenceEngine, both
// loaded from that checkpoint. The reference is built by the same
// binary, so the oracle stays valid when a change moves rounding; the
// golden records (golden_test) pin the reference itself.
//
// A method joins by being in AllMethods() or ExtensionMethods(); a
// dataset family by one more entry in Families().

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/molecule.h"
#include "src/data/protein.h"
#include "src/data/social.h"
#include "src/data/superpixel.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/gnn/readout.h"
#include "src/graph/batch.h"
#include "src/obs/metrics.h"
#include "src/serve/inference.h"
#include "src/tensor/simd.h"
#include "src/tensor/variable.h"
#include "src/train/checkpoint.h"
#include "src/train/trainer.h"
#include "src/util/file.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using test::ExecConfig;
using test::ScopedExecConfig;
using test::TempPath;

// Two epochs of two full batches each: OOD-GNN's reweighter runs on
// every batch, and the second epoch's batches fold into a bank that the
// first epoch already initialized (Eqs. 8–9).
constexpr int kEpochs = 2;
constexpr int kBatchSize = 6;

// --- dataset families -------------------------------------------------------
// Each family is cut to 12 train graphs (two batches) and a handful of
// valid/test graphs, with graphs large enough that the bigger kernels
// reach the backend's parallel cutoff at 4 threads. The readouts cover
// sum, mean and max pooling between them.

struct Family {
  const char* name;  // Test-name suffix: letters, digits, underscores.
  GraphDataset (*make)();
  ReadoutKind readout;
};

GraphDataset TinyTriangles() {
  TrianglesConfig config;
  config.num_train = 12;
  config.num_valid = 4;
  config.num_test = 6;
  config.train_max_nodes = 16;
  config.test_max_nodes = 24;
  return MakeTrianglesDataset(config, 3);
}

GraphDataset TinyMnist() {
  SuperpixelConfig config;
  config.num_train = 12;
  config.num_valid = 4;
  config.num_test = 6;
  config.max_superpixels = 30;
  return MakeSuperpixelMnistDataset(config, 4);
}

GraphDataset TinyCollab() {
  CollabConfig config;
  config.num_train = 12;
  config.num_valid = 4;
  config.num_test = 6;
  config.train_min_nodes = 16;
  config.train_max_nodes = 18;
  config.test_max_nodes = 32;
  return MakeCollabDataset(config, 5);
}

GraphDataset TinyProteins() {
  ProteinConfig config = Proteins25Config();
  config.num_train = 12;
  config.num_valid = 4;
  config.num_test = 6;
  config.test_max_nodes = 40;
  return MakeProteinDataset(config, 6);
}

/// An OGB molecule dataset of `num_graphs` graphs under its scaffold
/// split (8/1/1).
GraphDataset TinyMolecules(const char* name, int num_graphs) {
  MoleculeDatasetSpec spec = GetOgbMoleculeSpec(name);
  spec.num_graphs = num_graphs;
  return MakeMoleculeDataset(spec, 7);
}

GraphDataset TinyTox21() { return TinyMolecules("TOX21", 15); }
GraphDataset TinyEsol() { return TinyMolecules("ESOL", 15); }

const std::vector<Family>& Families() {
  static const std::vector<Family> families = {
      {"TRIANGLES", TinyTriangles, ReadoutKind::kSum},
      {"MNIST75SP", TinyMnist, ReadoutKind::kMean},
      {"COLLAB", TinyCollab, ReadoutKind::kSum},
      {"PROTEINS", TinyProteins, ReadoutKind::kMax},
      {"TOX21", TinyTox21, ReadoutKind::kMean},  // Masked multi-task binary.
      {"ESOL", TinyEsol, ReadoutKind::kSum},     // Regression.
  };
  return families;
}

// --- one run ----------------------------------------------------------------

/// Everything the oracle compares across configs.
struct RunOutputs {
  TrainResult result;
  std::string checkpoint;  // Final checkpoint bytes.
  Tensor direct;           // Test-split logits, one no-grad forward.
  Tensor served;           // The same rows from the engine.
  std::map<std::string, std::int64_t> counters;  // When counters are on.
};

TrainConfig OracleTrainConfig(const Family& family, const std::string& dir) {
  TrainConfig config;
  config.epochs = kEpochs;
  config.batch_size = kBatchSize;
  config.seed = 29;
  config.encoder.hidden_dim = 16;
  config.encoder.num_layers = 2;
  config.encoder.dropout = 0.3f;
  config.encoder.readout = family.readout;
  config.encoder.num_heads = 2;  // GAT heads of 8 reach the cutoff.
  config.ood.weights.epochs_reweight = 5;
  config.eval_every = kEpochs;
  config.checkpoint_every = kEpochs;  // The final epoch's snapshot.
  config.checkpoint_dir = dir;
  return config;
}

/// Trains `method` on `dataset` under `exec`, then serves the test
/// split from the checkpoint the run wrote.
void RunUnder(const ExecConfig& exec, Method method, const Family& family,
              const GraphDataset& dataset, const std::string& dir,
              RunOutputs* out) {
  ScopedExecConfig scoped(exec);

  const TrainConfig config = OracleTrainConfig(family, dir);
  out->result = TrainAndEvaluate(method, dataset, config);
  const std::string path =
      CheckpointPath(dir, dataset.name, MethodName(method), config.seed);
  ASSERT_TRUE(ReadFileToString(path, &out->checkpoint)) << path;

  serve::ModelSpec spec;
  spec.method = method;
  spec.encoder = ModelEncoderConfig(method, dataset, config.encoder);
  spec.output_dim = dataset.OutputDim();
  if (dataset.task_type != TaskType::kMulticlass) {
    spec.num_targets = dataset.num_tasks;
  }
  std::vector<const Graph*> test_graphs;
  for (size_t idx : dataset.test_idx) {
    test_graphs.push_back(&dataset.graphs[idx]);
  }

  Rng rng(1);
  GraphPredictionModel model(method, spec.encoder, spec.output_dim, &rng);
  ASSERT_TRUE(LoadCheckpointWeights(path, method, &model));
  {
    NoGradGuard no_grad;
    out->direct =
        model.Predict(GraphBatch::FromGraphs(test_graphs), false, &rng)
            .value();
  }

  obs::MetricsRegistry telemetry;
  serve::InferenceOptions options;
  options.num_workers = 2;
  options.telemetry_registry = &telemetry;
  serve::InferenceEngine engine(spec, options);
  ASSERT_TRUE(engine.LoadCheckpoint(path));
  std::vector<std::future<Tensor>> futures;
  for (const Graph* graph : test_graphs) {
    futures.push_back(engine.Submit(*graph));
  }
  out->served = Tensor(static_cast<int>(test_graphs.size()), spec.output_dim);
  for (size_t i = 0; i < futures.size(); ++i) {
    const Tensor row = futures[i].get();
    ASSERT_EQ(row.cols(), spec.output_dim);
    std::memcpy(out->served.data() + i * static_cast<size_t>(row.cols()),
                row.data(), static_cast<size_t>(row.cols()) * sizeof(float));
  }
  std::remove(path.c_str());

  if (exec.counters) {
    for (const auto& [name, value] :
         obs::MetricsRegistry::Global().GetSnapshot().counters) {
      out->counters[name] = value;
    }
  }
}

// --- bitwise comparison -----------------------------------------------------

template <typename T>
::testing::AssertionResult SameBits(const char* what, const std::vector<T>& ref,
                                    const std::vector<T>& got) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << what << ": " << got.size() << " entries, reference has "
           << ref.size();
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "] = " << got[i] << ", reference "
             << ref[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(const char* what, const Tensor& ref,
                                    const Tensor& got) {
  if (ref.rows() != got.rows() || ref.cols() != got.cols()) {
    return ::testing::AssertionFailure()
           << what << ": shape " << got.rows() << "x" << got.cols()
           << ", reference " << ref.rows() << "x" << ref.cols();
  }
  return SameBits(what, std::vector<float>(ref.data(), ref.data() + ref.size()),
                  std::vector<float>(got.data(), got.data() + got.size()));
}

::testing::AssertionResult SameBytes(const std::string& ref,
                                     const std::string& got) {
  if (ref == got) return ::testing::AssertionSuccess();
  size_t at = 0;
  while (at < ref.size() && at < got.size() && ref[at] == got[at]) ++at;
  return ::testing::AssertionFailure()
         << "checkpoint: " << got.size() << " bytes, reference " << ref.size()
         << "; first difference at byte " << at;
}

std::vector<double> Metrics(const TrainResult& result) {
  return {result.train_metric, result.valid_metric, result.test_metric,
          result.test2_metric};
}

void ExpectSameOutputs(const RunOutputs& ref, const RunOutputs& got) {
  EXPECT_TRUE(SameBytes(ref.checkpoint, got.checkpoint));
  EXPECT_TRUE(SameBits("epoch_losses", ref.result.epoch_losses,
                       got.result.epoch_losses));
  EXPECT_TRUE(SameBits("epoch_decorrelation_losses",
                       ref.result.epoch_decorrelation_losses,
                       got.result.epoch_decorrelation_losses));
  EXPECT_TRUE(SameBits("final_weights", ref.result.final_weights,
                       got.result.final_weights));
  EXPECT_EQ(ref.result.final_weight_graphs, got.result.final_weight_graphs);
  EXPECT_TRUE(SameBits("metrics (train, valid, test, test2)",
                       Metrics(ref.result), Metrics(got.result)));
  EXPECT_EQ(ref.result.num_parameters, got.result.num_parameters);
  EXPECT_TRUE(SameBits("direct logits", ref.direct, got.direct));
  EXPECT_TRUE(SameBits("served logits", ref.direct, got.served));
}

/// The counters of a counters-on run must show the config it ran under,
/// so no config is vacuous: pooled ranges at 4 threads, vector or scalar
/// kernel bodies as SIMD is on or off.
void ExpectCountersShowConfig(const ExecConfig& exec,
                              const RunOutputs& outputs) {
  std::int64_t parallel_calls = 0;
  for (const auto& [name, value] : outputs.counters) {
    const std::string suffix = "/parallel_calls";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      parallel_calls += value;
    }
  }
  const auto count = [&](const char* name) {
    const auto it = outputs.counters.find(name);
    return it == outputs.counters.end() ? std::int64_t{0} : it->second;
  };
  EXPECT_EQ(parallel_calls > 0, exec.threads > 1) << parallel_calls;
  EXPECT_EQ(count("kernel/simd/vector_calls") > 0,
            exec.simd && simd::Available());
  EXPECT_GT(count("kernel/simd/vector_calls") +
                count("kernel/simd/scalar_calls"),
            0);
}

// --- the oracle -----------------------------------------------------------

struct OracleCase {
  Method method;
  size_t family;  // Index into Families().
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << MethodName(c.method) << " on " << Families()[c.family].name;
}

std::vector<OracleCase> AllCases() {
  std::vector<Method> methods = AllMethods();
  for (Method method : ExtensionMethods()) methods.push_back(method);
  std::vector<OracleCase> cases;
  for (Method method : methods) {
    for (size_t f = 0; f < Families().size(); ++f) cases.push_back({method, f});
  }
  return cases;
}

class DeterminismOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DeterminismOracle, EveryConfigMatchesSerialScalarReference) {
  const Method method = GetParam().method;
  const Family& family = Families()[GetParam().family];
  const GraphDataset dataset = family.make();
  ASSERT_EQ(dataset.train_idx.size(), 2u * kBatchSize);
  ASSERT_FALSE(dataset.test_idx.empty());

  const std::vector<ExecConfig> configs = test::AllExecConfigs();
  const std::string dir = TempPath(std::string("oracle_") + family.name + "_" +
                                   MethodName(method));
  RunOutputs reference;
  RunUnder(configs[0], method, family, dataset, dir, &reference);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(reference.result.epoch_losses.size(),
            static_cast<size_t>(kEpochs));
  if (method == Method::kOodGnn) {
    EXPECT_EQ(reference.result.final_weights.size(), 2u * kBatchSize);
  }

  for (size_t c = 1; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].Describe());
    RunOutputs outputs;
    RunUnder(configs[c], method, family, dataset, dir, &outputs);
    ASSERT_FALSE(HasFatalFailure());
    ExpectSameOutputs(reference, outputs);
    if (configs[c].counters) ExpectCountersShowConfig(configs[c], outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAllFamilies, DeterminismOracle, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      std::string name = MethodName(info.param.method);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_" + Families()[info.param.family].name;
    });

}  // namespace
}  // namespace oodgnn
