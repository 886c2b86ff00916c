#include "src/train/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/graph.h"
#include "src/nn/mlp.h"
#include "src/nn/serialize.h"
#include "src/obs/journal.h"
#include "src/train/trainer.h"
#include "src/util/file.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using test::ModuleCheckpoint;
using test::TempPath;

/// Framed-file layout: u32 magic, u32 version, u64 payload size, u64
/// FNV-1a checksum, then the payload.
constexpr size_t kHeaderBytes = 24;

/// Recomputes the declared payload size and checksum, so a payload
/// mutation reaches the parser instead of the checksum check.
void RefreshFrame(std::string* bytes) {
  const uint64_t payload_size = bytes->size() - kHeaderBytes;
  std::memcpy(&(*bytes)[8], &payload_size, sizeof(payload_size));
  const uint64_t checksum =
      Fnv1a64(bytes->data() + kHeaderBytes, payload_size);
  std::memcpy(&(*bytes)[16], &checksum, sizeof(checksum));
}

/// Payload offsets of the structural words of `state`'s three tensor
/// lists (parameters, optimizer slots, buffers): each list's count,
/// then every tensor's rows and cols.
std::vector<size_t> TensorListWordOffsets(const TrainState& state) {
  // Preamble: dataset name, method, seed, epochs, batch size,
  // next_epoch, RNG state, train order.
  size_t at = sizeof(uint64_t) + state.dataset_name.size() +
              sizeof(uint32_t) + sizeof(uint64_t) + 3 * sizeof(uint32_t) +
              sizeof(uint64_t) + state.rng_state.size() + sizeof(uint64_t) +
              state.order.size() * sizeof(uint64_t);
  std::vector<size_t> offsets;
  auto walk = [&](const std::vector<Tensor>& tensors) {
    offsets.push_back(at);
    at += sizeof(uint32_t);
    for (const Tensor& tensor : tensors) {
      offsets.push_back(at);
      offsets.push_back(at + sizeof(uint32_t));
      at += 2 * sizeof(uint32_t) +
            static_cast<size_t>(tensor.size()) * sizeof(float);
    }
  };
  walk(state.params);
  at += sizeof(int64_t);  // Optimizer step count.
  walk(state.optimizer.slots);
  walk(state.buffers);
  return offsets;
}

/// Writes one fuzz mutant to `path` as a fresh file: some filesystems
/// flush on close when a file is truncated and rewritten, and the fuzz
/// writes thousands of mutants.
bool WriteMutant(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  return WriteStringToFile(path, bytes);
}

uint32_t PayloadWord(const std::string& bytes, size_t offset) {
  uint32_t word = 0;
  std::memcpy(&word, &bytes[kHeaderBytes + offset], sizeof(word));
  return word;
}

/// Writes byte mutants of the good file `good` to `path` and calls
/// `load()` on each. Every truncation and every single-byte flip must
/// fail (the header checks and the checksum). 0xFF over each aligned
/// payload word, with size and checksum refreshed, must never crash or
/// over-allocate — a stomped float is a valid file with other values
/// and may load — and must fail on every payload offset in
/// `structural` (count and shape words). Trailing garbage must fail
/// whether or not the header is refreshed to declare it.
template <typename Load>
void ExpectMutantsFailCleanly(const std::string& good,
                              const std::vector<size_t>& structural,
                              const std::string& path, Load load) {
  for (size_t len = 0; len < good.size(); ++len) {
    ASSERT_TRUE(WriteMutant(path, good.substr(0, len)));
    EXPECT_FALSE(load()) << "truncation at " << len;
  }
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::string mutated = good;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0xFF);
    ASSERT_TRUE(WriteMutant(path, mutated));
    EXPECT_FALSE(load()) << "flip at " << offset;
  }
  const size_t payload_size = good.size() - kHeaderBytes;
  for (size_t offset = 0; offset + sizeof(uint32_t) <= payload_size;
       offset += sizeof(uint32_t)) {
    std::string mutated = good;
    std::memset(&mutated[kHeaderBytes + offset], 0xFF, sizeof(uint32_t));
    RefreshFrame(&mutated);
    ASSERT_TRUE(WriteMutant(path, mutated));
    const bool loaded = load();
    if (std::find(structural.begin(), structural.end(), offset) !=
        structural.end()) {
      EXPECT_FALSE(loaded) << "stomp on count/shape word at " << offset;
    }
  }
  std::string trailing = good + std::string(7, '\xAB');
  ASSERT_TRUE(WriteMutant(path, trailing));
  EXPECT_FALSE(load()) << "undeclared trailing garbage";
  RefreshFrame(&trailing);
  ASSERT_TRUE(WriteMutant(path, trailing));
  EXPECT_FALSE(load()) << "declared trailing garbage";
}

/// Trivially separable dataset: label = 1 iff the graph has edges.
/// Construction is deterministic and independent of any global state,
/// so every (re-)invocation — including a death-test child process —
/// sees the identical dataset.
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

TrainConfig FastConfig(const std::string& checkpoint_dir) {
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 6;
  config.lr = 5e-3f;
  config.seed = 21;
  config.encoder.hidden_dim = 8;
  config.encoder.num_layers = 2;
  config.encoder.dropout = 0.f;
  config.ood.weights.epochs_reweight = 3;
  config.checkpoint_every = 3;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

/// A populated state with distinctive values in every field.
TrainState ExampleState() {
  TrainState state;
  state.dataset_name = "easy";
  state.method = 2;
  state.seed = 21;
  state.epochs = 6;
  state.batch_size = 6;
  state.next_epoch = 3;
  state.rng_state = Rng(99).SaveState();
  state.order = {3, 1, 4, 1, 5, 9, 2, 6};
  state.params = {Tensor::RowVector({1.f, 2.f, 3.f}),
                  Tensor::ColVector({4.f, 5.f})};
  state.optimizer.step_count = 17;
  state.optimizer.slots = {Tensor(1, 3, 0.25f), Tensor(2, 1, -0.5f),
                           Tensor(1, 3, 0.75f), Tensor(2, 1, 1.5f)};
  state.buffers = {Tensor(1, 3, 0.05f), Tensor(1, 3, 0.95f)};
  state.has_bank = true;
  state.bank_initialized = true;
  state.bank_gammas = {0.9f, 0.63f};
  state.bank_z = {Tensor(4, 2, 0.1f), Tensor(4, 2, 0.2f)};
  state.bank_w = {Tensor(4, 1, 1.f), Tensor(4, 1, 0.8f)};
  state.best_valid = 0.875;
  state.train_metric = 0.9;
  state.valid_metric = 0.875;
  state.test_metric = 0.85;
  state.test2_metric = -1.0;
  state.epoch_losses = {0.7, 0.5, 0.4};
  state.epoch_decorrelation_losses = {0.02, 0.015, 0.012};
  state.final_weights = {1.1f, 0.9f};
  state.final_weight_graphs = {7, 3};
  return state;
}

void ExpectStatesEqual(const TrainState& a, const TrainState& b) {
  EXPECT_EQ(a.dataset_name, b.dataset_name);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.order, b.order);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_TRUE(AllClose(a.params[i], b.params[i], 0.f));
  }
  EXPECT_EQ(a.optimizer.step_count, b.optimizer.step_count);
  ASSERT_EQ(a.optimizer.slots.size(), b.optimizer.slots.size());
  for (size_t i = 0; i < a.optimizer.slots.size(); ++i) {
    EXPECT_TRUE(AllClose(a.optimizer.slots[i], b.optimizer.slots[i], 0.f));
  }
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  for (size_t i = 0; i < a.buffers.size(); ++i) {
    EXPECT_TRUE(AllClose(a.buffers[i], b.buffers[i], 0.f));
  }
  EXPECT_EQ(a.has_bank, b.has_bank);
  EXPECT_EQ(a.bank_initialized, b.bank_initialized);
  EXPECT_EQ(a.bank_gammas, b.bank_gammas);
  ASSERT_EQ(a.bank_z.size(), b.bank_z.size());
  for (size_t i = 0; i < a.bank_z.size(); ++i) {
    EXPECT_TRUE(AllClose(a.bank_z[i], b.bank_z[i], 0.f));
    EXPECT_TRUE(AllClose(a.bank_w[i], b.bank_w[i], 0.f));
  }
  EXPECT_EQ(a.best_valid, b.best_valid);
  EXPECT_EQ(a.train_metric, b.train_metric);
  EXPECT_EQ(a.valid_metric, b.valid_metric);
  EXPECT_EQ(a.test_metric, b.test_metric);
  EXPECT_EQ(a.test2_metric, b.test2_metric);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  EXPECT_EQ(a.epoch_decorrelation_losses, b.epoch_decorrelation_losses);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.final_weight_graphs, b.final_weight_graphs);
}

void ExpectResultsBitwiseEqual(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.train_metric, b.train_metric);
  EXPECT_EQ(a.valid_metric, b.valid_metric);
  EXPECT_EQ(a.test_metric, b.test_metric);
  EXPECT_EQ(a.test2_metric, b.test2_metric);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  EXPECT_EQ(a.epoch_decorrelation_losses, b.epoch_decorrelation_losses);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.final_weight_graphs, b.final_weight_graphs);
  EXPECT_EQ(a.num_parameters, b.num_parameters);
}

TEST(CheckpointTest, StateRoundTripIsExact) {
  const std::string path = TempPath("roundtrip.ckpt");
  const TrainState saved = ExampleState();
  ASSERT_TRUE(SaveTrainState(path, saved));
  TrainState loaded;
  ASSERT_TRUE(LoadTrainState(path, &loaded));
  ExpectStatesEqual(saved, loaded);
  // The serialized RNG state drives the exact same stream.
  Rng restored(0);
  ASSERT_TRUE(restored.LoadState(loaded.rng_state));
  Rng reference(99);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(reference.UniformInt(0, 1 << 30),
              restored.UniformInt(0, 1 << 30));
  }
}

// A checkpoint's RNG text reaches Rng::LoadState before anything checks
// it against the run: bad text must be refused with the stream left as
// it was, and (under ASan) without a read outside the state array.
TEST(CheckpointTest, RngLoadStateRejectsBadTextAndKeepsTheStream) {
  Rng source(99);
  for (int i = 0; i < 100; ++i) source.UniformInt(0, 10);
  const std::string good = source.SaveState();
  std::vector<std::string> fields;
  for (size_t begin = 0; begin <= good.size();) {
    const size_t end = std::min(good.find(' ', begin), good.size());
    fields.push_back(good.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_EQ(fields.size(), 313u);  // 312 words, then the index.
  const auto join = [](const std::vector<std::string>& parts) {
    std::string text;
    for (const std::string& part : parts) {
      text += (text.empty() ? "" : " ") + part;
    }
    return text;
  };
  const auto with_field = [&](size_t i, const std::string& value) {
    std::vector<std::string> parts = fields;
    parts[i] = value;
    return join(parts);
  };
  std::vector<std::string> words_only = fields;
  words_only.pop_back();
  std::vector<std::string> short_by_one = fields;
  short_by_one.erase(short_by_one.begin());
  const std::vector<std::string> rejected = {
      with_field(312, "313"),
      with_field(312, "-1"),
      with_field(312, "4294967608"),  // 312 + 2³²
      with_field(312, "x"),
      join(words_only),    // 312 words, no index
      join(short_by_one),  // 311 words, then the index
      with_field(0, "abc"),
      with_field(7, "12a"),
      with_field(200, "-3"),
      with_field(200, "+3"),
      with_field(311, "18446744073709551616"),  // 2⁶⁴
      good + " 0",
      good + "x",
      "",
      " ",
  };
  for (size_t i = 0; i < rejected.size(); ++i) {
    Rng rng(7);
    rng.UniformInt(0, 10);
    const std::string before = rng.SaveState();
    EXPECT_FALSE(rng.LoadState(rejected[i])) << "rejected case " << i;
    EXPECT_TRUE(rng.SaveState() == before) << "rejected case " << i;
  }
  // Any whitespace may separate fields, and the index may be 0 or 312.
  std::string spaced = "\n" + good + "\t\n";
  std::replace(spaced.begin(), spaced.begin() + 40, ' ', '\t');
  for (const std::string& text :
       {spaced, with_field(312, "0"), with_field(312, "312")}) {
    Rng rng(7);
    EXPECT_TRUE(rng.LoadState(text));
  }
  Rng restored(7);
  ASSERT_TRUE(restored.LoadState(spaced));
  EXPECT_EQ(restored.SaveState(), good);
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(restored.UniformInt(0, 1 << 30), source.UniformInt(0, 1 << 30));
  }
}

TEST(CheckpointTest, EnsureDirectoryCreatesNestedPaths) {
  const std::string dir = TempPath("nested/check/point/dir");
  EXPECT_TRUE(EnsureDirectory(dir));
  EXPECT_TRUE(EnsureDirectory(dir));  // Idempotent.
  const std::string path = CheckpointPath(dir, "easy", "GIN", 7);
  EXPECT_EQ(path, dir + "/easy_GIN_seed7.ckpt");
  ASSERT_TRUE(SaveTrainState(path, ExampleState()));
  EXPECT_TRUE(FileExists(path));
  // A file in the way is reported, not clobbered.
  EXPECT_FALSE(EnsureDirectory(path));
}

TEST(CheckpointTest, AtomicRewriteReplacesPreviousSnapshot) {
  const std::string path = TempPath("rewrite.ckpt");
  TrainState first = ExampleState();
  first.next_epoch = 3;
  ASSERT_TRUE(SaveTrainState(path, first));
  TrainState second = ExampleState();
  second.next_epoch = 6;
  second.epoch_losses.push_back(0.3);
  ASSERT_TRUE(SaveTrainState(path, second));
  TrainState loaded;
  ASSERT_TRUE(LoadTrainState(path, &loaded));
  ExpectStatesEqual(second, loaded);
  EXPECT_FALSE(FileExists(path + ".tmp"));  // Temp file was renamed away.
}

// The resume-equivalence contract without any interruption: running
// with periodic snapshots enabled must not perturb training at all.
TEST(CheckpointTest, CheckpointingDoesNotPerturbTraining) {
  GraphDataset ds = EasyDataset(12);
  TrainConfig plain = FastConfig(TempPath("ckpt_perturb"));
  plain.checkpoint_every = 0;
  TrainConfig snapshotting = FastConfig(TempPath("ckpt_perturb"));
  TrainResult a = TrainAndEvaluate(Method::kGin, ds, plain);
  TrainResult b = TrainAndEvaluate(Method::kGin, ds, snapshotting);
  ExpectResultsBitwiseEqual(a, b);
}

/// Shared body for the crash → resume → bitwise-compare scenario.
/// A child process (threadsafe death test, so it re-execs this binary
/// and builds its own backend threads) trains under the reference
/// execution config with the crash hook armed and dies after epoch 3.
/// The parent resumes a copy of that epoch-3 snapshot under each
/// execution config (test::AllExecConfigs) and must reproduce an
/// uninterrupted reference run exactly — metrics, loss curves, learned
/// weights, and the final snapshot's bytes.
void CrashResumeScenario(Method method, const std::string& tag) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<test::ExecConfig> configs = test::AllExecConfigs();
  const test::ScopedExecConfig reference(configs[0]);
  const std::string crashed_dir = TempPath("ckpt_crash_" + tag);
  const std::string straight_dir = TempPath("ckpt_straight_" + tag);
  GraphDataset ds = EasyDataset(12);
  TrainConfig config = FastConfig(crashed_dir);
  const std::string crashed_ckpt =
      CheckpointPath(crashed_dir, ds.name, MethodName(method), config.seed);
  std::remove(crashed_ckpt.c_str());

  EXPECT_EXIT(
      {
        setenv("OODGNN_CRASH_AFTER_EPOCH", "3", 1);
        TrainAndEvaluate(method, EasyDataset(12), config);
      },
      testing::ExitedWithCode(kCrashExitCode), "injected crash");
  std::string crashed_bytes;
  ASSERT_TRUE(ReadFileToString(crashed_ckpt, &crashed_bytes));
  {
    TrainState state;
    ASSERT_TRUE(LoadTrainState(crashed_ckpt, &state));
    EXPECT_EQ(state.next_epoch, 3u);
  }

  // An uninterrupted run with the same seed (separate snapshot dir).
  TrainConfig straight_config = FastConfig(straight_dir);
  TrainResult straight = TrainAndEvaluate(method, ds, straight_config);
  const std::string straight_ckpt = CheckpointPath(
      straight_dir, ds.name, MethodName(method), straight_config.seed);
  std::string straight_bytes;
  ASSERT_TRUE(ReadFileToString(straight_ckpt, &straight_bytes));

  // Resume the interrupted run, journaling so the resume event lands in
  // the trace output.
  const std::string journal_path = TempPath("resume_" + tag + ".jsonl");
  obs::OpenGlobalJournal(journal_path);
  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].Describe());
    const std::string resume_dir =
        TempPath("ckpt_resume_" + tag + "_" + std::to_string(c));
    ASSERT_TRUE(EnsureDirectory(resume_dir));
    const std::string resume_ckpt =
        CheckpointPath(resume_dir, ds.name, MethodName(method), config.seed);
    ASSERT_TRUE(WriteStringToFile(resume_ckpt, crashed_bytes));
    TrainConfig resume_config = FastConfig(resume_dir);
    resume_config.resume = true;
    TrainResult resumed;
    {
      const test::ScopedExecConfig scoped(configs[c]);
      resumed = TrainAndEvaluate(method, ds, resume_config);
    }
    ExpectResultsBitwiseEqual(straight, resumed);

    // Both runs snapshot after the final epoch; the files must be
    // byte-identical — parameters, optimizer moments, RNG stream,
    // order, bank, and bookkeeping all agree exactly.
    std::string resumed_bytes;
    ASSERT_TRUE(ReadFileToString(resume_ckpt, &resumed_bytes));
    EXPECT_EQ(resumed_bytes.size(), straight_bytes.size());
    EXPECT_TRUE(resumed_bytes == straight_bytes);
  }
  obs::CloseGlobalJournal();

  std::string journal;
  ASSERT_TRUE(ReadFileToString(journal_path, &journal));
  EXPECT_NE(journal.find("\"event\":\"resume\""), std::string::npos);
  EXPECT_NE(journal.find("\"restored_epoch\":3"), std::string::npos);
}

TEST(CheckpointDeathTest, ResumeAfterCrashIsBitwiseIdenticalGin) {
  CrashResumeScenario(Method::kGin, "gin");
}

TEST(CheckpointDeathTest, ResumeAfterCrashIsBitwiseIdenticalOodGnn) {
  CrashResumeScenario(Method::kOodGnn, "oodgnn");
}

TEST(CheckpointDeathTest, CrashInWriteLeavesPreviousSnapshotIntact) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempPath("crash_in_write.ckpt");
  TrainState durable = ExampleState();
  durable.next_epoch = 3;
  ASSERT_TRUE(SaveTrainState(path, durable));

  EXPECT_EXIT(
      {
        setenv("OODGNN_CRASH_IN_WRITE", "1", 1);
        TrainState doomed = ExampleState();
        doomed.next_epoch = 6;
        SaveTrainState(path, doomed);
      },
      testing::ExitedWithCode(kCrashExitCode), "injected crash");

  // The interrupted write only touched the temp file; the durable
  // snapshot still loads and holds the old contents.
  TrainState loaded;
  ASSERT_TRUE(LoadTrainState(path, &loaded));
  ExpectStatesEqual(durable, loaded);
  // The partial temp file itself is rejected cleanly.
  TrainState partial;
  EXPECT_FALSE(LoadTrainState(path + ".tmp", &partial));
}

TEST(CheckpointTest, ResumeWithCorruptSnapshotStartsFresh) {
  GraphDataset ds = EasyDataset(12);
  const std::string dir = TempPath("ckpt_corrupt_resume");
  ASSERT_TRUE(EnsureDirectory(dir));
  TrainConfig config = FastConfig(dir);
  const std::string path =
      CheckpointPath(dir, ds.name, MethodName(Method::kGin), config.seed);
  ASSERT_TRUE(WriteStringToFile(path, "definitely not a checkpoint"));

  TrainConfig resume_config = config;
  resume_config.resume = true;
  TrainResult resumed = TrainAndEvaluate(Method::kGin, ds, resume_config);

  TrainConfig straight_config = FastConfig(TempPath("ckpt_corrupt_straight"));
  TrainResult straight = TrainAndEvaluate(Method::kGin, ds, straight_config);
  ExpectResultsBitwiseEqual(straight, resumed);
}

TEST(CheckpointTest, ResumeFromFinishedRunSkipsTraining) {
  GraphDataset ds = EasyDataset(12);
  const std::string dir = TempPath("ckpt_finished");
  TrainConfig config = FastConfig(dir);
  config.checkpoint_every = 6;  // Snapshot exactly at the final epoch.
  TrainResult straight = TrainAndEvaluate(Method::kGin, ds, config);

  TrainConfig resume_config = config;
  resume_config.resume = true;
  TrainResult resumed = TrainAndEvaluate(Method::kGin, ds, resume_config);
  ExpectResultsBitwiseEqual(straight, resumed);
  EXPECT_EQ(resumed.epoch_losses.size(), 6u);
}

// Deterministic byte-mutation fuzz over a real snapshot: truncations,
// header damage, and payload flips must all fail cleanly (the checksum
// catches them); mutations that *fix up* the checksum must still never
// crash, over-allocate, or trip a sanitizer, because every count is
// bounds-checked against the bytes actually present — and a stomped
// count or shape word of a tensor list must fail.
TEST(CheckpointTest, FuzzCorruptedSnapshotsFailCleanly) {
  const TrainState example = ExampleState();
  const std::string good_path = TempPath("fuzz_state_good.ckpt");
  ASSERT_TRUE(SaveTrainState(good_path, example));
  std::string good;
  ASSERT_TRUE(ReadFileToString(good_path, &good));
  ASSERT_GT(good.size(), kHeaderBytes);
  const std::string path = TempPath("fuzz_state_mutant.ckpt");

  TrainState scratch;
  auto load = [&] { return LoadTrainState(path, &scratch); };

  // Truncations, flips, 0xFF stomps (each count and shape word of the
  // parameter, optimizer-slot and buffer lists must fail) and trailing
  // garbage.
  const std::vector<size_t> structural = TensorListWordOffsets(example);
  ASSERT_EQ(PayloadWord(good, structural.front()), example.params.size());
  ExpectMutantsFailCleanly(good, structural, path, load);

  // Oversized header: payload size beyond the file, or astronomical.
  for (uint64_t declared : {good.size() - 23, good.size() * 2,
                            uint64_t{1} << 60}) {
    std::string mutated = good;
    std::memcpy(&mutated[8], &declared, sizeof(declared));
    ASSERT_TRUE(WriteMutant(path, mutated));
    EXPECT_FALSE(load()) << "declared payload " << declared;
  }

  // Zeroed payload with a valid checksum: parses as nonsense and is
  // rejected (trailing bytes / semantic checks), never accepted as-is.
  {
    std::string mutated = good;
    std::memset(&mutated[kHeaderBytes], 0, mutated.size() - kHeaderBytes);
    RefreshFrame(&mutated);
    ASSERT_TRUE(WriteMutant(path, mutated));
    EXPECT_FALSE(load());
  }

  // Truncated payload with a fixed-up header: inner bounds checks
  // reject it even though size and checksum agree.
  {
    std::string mutated =
        good.substr(0, kHeaderBytes + (good.size() - kHeaderBytes) / 2);
    RefreshFrame(&mutated);
    ASSERT_TRUE(WriteMutant(path, mutated));
    EXPECT_FALSE(load());
  }

  // The pristine snapshot still loads after the whole gauntlet.
  EXPECT_TRUE(LoadTrainState(good_path, &scratch));
}

// ---------------------------------------------------------------------------
// The container itself: durable saves, framing, tensor lists, and
// LoadCheckpointWeights, the one routine that restores a module from a
// checkpoint (what the inference engine serves).
// ---------------------------------------------------------------------------

TEST(SerializeTest, MissingFileFailsGracefully) {
  TrainState state;
  EXPECT_FALSE(LoadTrainState(TempPath("does_not_exist.ckpt"), &state));
  EXPECT_FALSE(SaveTrainState("/nonexistent_dir/x.ckpt", ExampleState()));
  Rng rng(7);
  Mlp mlp({2, 2}, &rng);
  EXPECT_FALSE(LoadCheckpointWeights(TempPath("does_not_exist.ckpt"),
                                     Method::kGin, &mlp));
}

TEST(SerializeTest, FailedSaveLeavesThePreviousFileIntact) {
  const std::string path = TempPath("durable.ckpt");
  const TrainState first = ExampleState();
  ASSERT_TRUE(SaveTrainState(path, first));
  std::string saved;
  ASSERT_TRUE(ReadFileToString(path, &saved));

  // A directory where the temp file goes makes the next save fail.
  const std::string tmp_path = path + ".tmp";
  std::remove(tmp_path.c_str());
  ASSERT_EQ(::mkdir(tmp_path.c_str(), 0755), 0);
  TrainState second = ExampleState();
  second.next_epoch = 6;
  EXPECT_FALSE(SaveTrainState(path, second));
  ::rmdir(tmp_path.c_str());

  std::string after;
  ASSERT_TRUE(ReadFileToString(path, &after));
  EXPECT_EQ(after, saved);
  TrainState loaded;
  ASSERT_TRUE(LoadTrainState(path, &loaded));
  ExpectStatesEqual(first, loaded);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsWrongMagic) {
  const std::string path = TempPath("garbage.ckpt");
  const char junk[32] = "this is not a checkpoint";
  ASSERT_TRUE(WriteStringToFile(path, std::string(junk, sizeof(junk))));
  TrainState state;
  EXPECT_FALSE(LoadTrainState(path, &state));
  Rng rng(8);
  Mlp mlp({2, 2}, &rng);
  EXPECT_FALSE(LoadCheckpointWeights(path, Method::kGin, &mlp));
}

TEST(SerializeTest, ShapeMismatchFailsWithoutModifyingModule) {
  Rng rng(9);
  Mlp small({2, 3, 2}, &rng, /*batch_norm=*/true);
  const std::string path = TempPath("small.ckpt");
  ASSERT_TRUE(SaveTrainState(path, ModuleCheckpoint(small, Method::kGin)));
  Rng rng_b(11);
  Mlp bigger({2, 4, 2}, &rng_b, /*batch_norm=*/true);
  ASSERT_FALSE(bigger.Buffers().empty());
  const TrainState before = ModuleCheckpoint(bigger, Method::kGin);
  EXPECT_FALSE(LoadCheckpointWeights(path, Method::kGin, &bigger));
  ExpectStatesEqual(before, ModuleCheckpoint(bigger, Method::kGin));
}

TEST(SerializeTest, ParameterCountMismatchFails) {
  Rng rng(10);
  Mlp two_layers({2, 3, 1}, &rng);
  const std::string path = TempPath("two.ckpt");
  ASSERT_TRUE(
      SaveTrainState(path, ModuleCheckpoint(two_layers, Method::kGin)));
  Mlp one_layer({2, 1}, &rng);
  EXPECT_FALSE(LoadCheckpointWeights(path, Method::kGin, &one_layer));
}

TEST(SerializeTest, RejectsHeaderDeclaringMoreTensorsThanFileHolds) {
  const TrainState example = ExampleState();
  const std::string path = TempPath("inflated.ckpt");
  ASSERT_TRUE(SaveTrainState(path, example));
  std::string good;
  ASSERT_TRUE(ReadFileToString(path, &good));
  const size_t count_at = TensorListWordOffsets(example).front();
  ASSERT_EQ(PayloadWord(good, count_at), example.params.size());
  TrainState state;

  // A parameter count far beyond what the file can back; the loader
  // must refuse before allocating.
  std::string inflated = good;
  const uint32_t huge = 0x7FFFFFFF;
  std::memcpy(&inflated[kHeaderBytes + count_at], &huge, sizeof(huge));
  RefreshFrame(&inflated);
  ASSERT_TRUE(WriteStringToFile(path, inflated));
  EXPECT_FALSE(LoadTrainState(path, &state));

  // The right count, but the payload ends after the first tensor.
  ASSERT_GT(example.params.size(), 1u);
  std::string cut = good.substr(
      0, kHeaderBytes + count_at + sizeof(uint32_t) + 2 * sizeof(uint32_t) +
             static_cast<size_t>(example.params[0].size()) * sizeof(float));
  RefreshFrame(&cut);
  ASSERT_TRUE(WriteStringToFile(path, cut));
  EXPECT_FALSE(LoadTrainState(path, &state));
}

// The same byte-mutation fuzz seen from the serving side: a module
// checkpoint restored through LoadCheckpointWeights. No mutant that
// fails to load may change the module.
TEST(SerializeTest, FuzzCorruptedModelStateFilesFailCleanly) {
  // Batch norm gives the file a buffer list as well.
  Rng rng(13);
  Mlp source({3, 4, 2}, &rng, /*batch_norm=*/true);
  ASSERT_FALSE(source.Buffers().empty());
  const TrainState saved = ModuleCheckpoint(source, Method::kGin);
  const std::string good_path = TempPath("fuzz_model_good.ckpt");
  ASSERT_TRUE(SaveTrainState(good_path, saved));
  std::string good;
  ASSERT_TRUE(ReadFileToString(good_path, &good));
  ASSERT_GT(good.size(), kHeaderBytes);
  const std::string path = TempPath("fuzz_model_mutant.ckpt");

  // Each mutant loads into a fresh target with the same architecture
  // but other weights, so a partial restore would show.
  auto make_target = [] {
    Rng target_rng(14);
    return Mlp({3, 4, 2}, &target_rng, /*batch_norm=*/true);
  };
  const TrainState before = ModuleCheckpoint(make_target(), Method::kGin);
  auto load = [&] {
    Mlp target = make_target();
    const bool loaded = LoadCheckpointWeights(path, Method::kGin, &target);
    if (!loaded) {
      ExpectStatesEqual(before, ModuleCheckpoint(target, Method::kGin));
    }
    return loaded;
  };
  const std::vector<size_t> structural = TensorListWordOffsets(saved);
  ASSERT_EQ(PayloadWord(good, structural.front()), saved.params.size());
  ExpectMutantsFailCleanly(good, structural, path, load);

  // The pristine file still restores the source's weights.
  Mlp target = make_target();
  EXPECT_TRUE(LoadCheckpointWeights(good_path, Method::kGin, &target));
  ExpectStatesEqual(saved, ModuleCheckpoint(target, Method::kGin));
}

}  // namespace
}  // namespace oodgnn
