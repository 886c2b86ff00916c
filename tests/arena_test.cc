// Tensor storage: every tensor comes from its thread's first-fit arena
// (src/tensor/arena.h). Pinned here: alignment, first-fit reuse and
// coalescing, blocks outliving their arena and their thread, and the
// zero-heap steady state of training steps, eval forwards and the
// serving engine once the arena has grown to fit them.

#include "src/tensor/arena.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/ood_gnn.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/serve/inference.h"
#include "src/tensor/tensor.h"
#include "src/tensor/variable.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

/// gtest param names must be alphanumeric ("OOD-GNN" is not).
std::string ParamName(Method method) {
  std::string name;
  for (const char* p = MethodName(method); *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p)) != 0) name.push_back(*p);
  }
  return name;
}

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

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

/// Eval-mode logits of `graphs` as one no-grad batch.
Tensor EagerLogits(GraphPredictionModel* model,
                   const std::vector<const Graph*>& graphs) {
  NoGradGuard no_grad;
  GraphBatch batch = GraphBatch::FromGraphs(graphs);
  Rng rng(999);
  return model->Predict(batch, /*training=*/false, &rng).value();
}

// ---------------------------------------------------------------------------
// Storage alignment.
// ---------------------------------------------------------------------------

TEST(TensorStorageTest, AllStorageIs64ByteAligned) {
  auto aligned = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kTensorStorageAlignBytes == 0;
  };
  Tensor small(3, 5, 1.f);
  EXPECT_TRUE(aligned(small.data()));
  Tensor copy = small;
  EXPECT_TRUE(aligned(copy.data()));
  EXPECT_NE(copy.data(), small.data());  // Deep copy.
  Tensor from = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(aligned(from.data()));
  Tensor odd(7, 9, 2.f);  // 63 floats: not a granule multiple.
  EXPECT_TRUE(aligned(odd.data()));

  Arena arena;
  std::shared_ptr<float> block = arena.Allocate(63);
  EXPECT_TRUE(aligned(block.get()));
}

TEST(TensorStorageTest, MoveLeavesSourceEmpty) {
  Tensor a(4, 4, 3.f);
  Tensor b = std::move(a);
  EXPECT_EQ(b.rows(), 4);
  EXPECT_EQ(b.at(0, 0), 3.f);
  EXPECT_EQ(a.rows(), 0);
  EXPECT_EQ(a.cols(), 0);
  EXPECT_TRUE(a.empty());
  a = Tensor(2, 2, 1.f);  // Moved-from tensor is assignable again.
  EXPECT_EQ(a.Sum(), 4.f);
}

// ---------------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------------

TEST(ArenaTest, FirstFitReusesFreedExtents) {
  Arena arena(1024);
  std::shared_ptr<float> a = arena.Allocate(100);
  float* first = a.get();
  a.reset();
  std::shared_ptr<float> b = arena.Allocate(80);
  EXPECT_EQ(b.get(), first);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.slab_count, 1);
  EXPECT_EQ(stats.allocs, 2);
}

TEST(ArenaTest, CoalescesAdjacentHoles) {
  Arena arena(4096);
  std::shared_ptr<float> a = arena.Allocate(64);
  std::shared_ptr<float> b = arena.Allocate(64);
  std::shared_ptr<float> keep = arena.Allocate(64);
  float* first = a.get();
  a.reset();
  b.reset();
  // 64+64 adjacent frees must satisfy a 128 request at the old offset.
  std::shared_ptr<float> c = arena.Allocate(128);
  EXPECT_EQ(c.get(), first);
  (void)keep;
}

TEST(ArenaTest, GrowsBySlabsAndBlocksOutliveTheArena) {
  std::shared_ptr<float> survivor;
  {
    Arena arena(64);
    survivor = arena.Allocate(64);
    std::shared_ptr<float> big = arena.Allocate(1 << 14);
    big.get()[0] = 1.f;
    EXPECT_GE(arena.stats().slab_count, 2);
  }
  // The deleter holds the arena state alive; the block stays valid.
  survivor.get()[0] = 2.f;
  EXPECT_EQ(survivor.get()[0], 2.f);
}

TEST(ArenaTest, TensorOutlivesItsThreadAndIsFreedFromAnother) {
  // The allocating thread's arena dies with the thread; the tensor's
  // block keeps that arena's state (and slab) alive.
  Tensor orphan;
  std::thread producer([&] {
    Tensor t(5, 7);
    for (int i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
    orphan = std::move(t);
  });
  producer.join();
  ASSERT_EQ(orphan.size(), 35);
  for (int i = 0; i < orphan.size(); ++i) {
    EXPECT_EQ(orphan[i], static_cast<float>(i));
  }
  // The last reference drops on a third thread, which returns the
  // extent to the dead thread's arena state and releases it.
  std::thread consumer([t = std::move(orphan)]() mutable {
    EXPECT_EQ(t.Sum(), 595.f);
    t = Tensor();
  });
  consumer.join();
  EXPECT_TRUE(orphan.empty());
}

TEST(ArenaTest, SteadyStateForwardsAllocateNothingFromTheHeap) {
  GraphDataset dataset = TinyDataset();
  Rng rng(5);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);

  NoGradGuard no_grad;
  Rng fwd(1);
  auto forward = [&] {
    GraphBatch batch = GraphBatch::FromGraphs(graphs);
    return model.Predict(batch, /*training=*/false, &fwd).value();
  };
  const Tensor warm = forward();  // Grows the thread's arena.
  const std::int64_t heap_before = TensorHeapAllocsThisThread();
  Tensor again;
  for (int round = 0; round < 5; ++round) again = forward();
  EXPECT_EQ(TensorHeapAllocsThisThread(), heap_before);
  EXPECT_TRUE(BitwiseEqual(warm, again));
}

// ---------------------------------------------------------------------------
// Grad-mode steady state: a whole training step — forward, the OOD-GNN
// reweighter's inner optimization, weighted loss, backward and the Adam
// update — repeated on one fixed batch stops touching the heap after a
// short warm-up.
// ---------------------------------------------------------------------------

class GradSteadyState : public ::testing::TestWithParam<Method> {};

TEST_P(GradSteadyState, TrainStepsAllocateNothingFromTheHeap) {
  const Method method = GetParam();
  GraphDataset dataset = TinyDataset();
  Rng rng(21);
  GraphPredictionModel model(method, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  Adam optimizer(model.Parameters(), 1e-3f);
  constexpr size_t kBatch = 8;
  std::unique_ptr<OodGnnReweighter> reweighter;
  if (method == Method::kOodGnn) {
    reweighter = std::make_unique<OodGnnReweighter>(
        model.representation_dim(), static_cast<int>(kBatch), OodGnnConfig{},
        &rng);
  }
  const GraphBatch batch = MakeBatch(dataset.graphs, dataset.train_idx, 0,
                                     kBatch);
  const auto step = [&] {
    Variable z = model.Encode(batch, /*training=*/true, &rng);
    std::vector<float> weights;
    if (reweighter != nullptr) weights = reweighter->ComputeWeights(z.value());
    Variable logits = model.Classify(z, /*training=*/true);
    Variable loss = SoftmaxCrossEntropy(logits, batch.class_labels, weights);
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    return loss.value()[0];
  };
  for (int warmup = 0; warmup < 3; ++warmup) (void)step();
  const std::int64_t heap_before = TensorHeapAllocsThisThread();
  // Enough steps that an arena which stopped reusing freed extents
  // would outgrow even its last doubled slab.
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(std::isfinite(step()));
  EXPECT_EQ(TensorHeapAllocsThisThread(), heap_before) << MethodName(method);
}

INSTANTIATE_TEST_SUITE_P(Methods, GradSteadyState,
                         ::testing::Values(Method::kGin, Method::kOodGnn),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return ParamName(info.param);
                         });

// ---------------------------------------------------------------------------
// Serving steady state: once a worker's arena has served every graph
// shape once, further requests allocate nothing from the heap.
// ---------------------------------------------------------------------------

class SteadyStateZeroAlloc : public ::testing::TestWithParam<Method> {};

TEST_P(SteadyStateZeroAlloc, ServesEveryRequestFromTheArena) {
  GraphDataset dataset = TinyDataset();
  serve::ModelSpec spec;
  spec.method = GetParam();
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  Rng rng(8);
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);
  serve::InferenceOptions options;
  options.num_workers = 1;
  options.max_batch_graphs = 1;
  options.max_batch_wait_us = 0;
  serve::InferenceEngine engine(spec, options);
  engine.SyncFrom(model);

  constexpr int kRounds = 8;
  std::int64_t warm_allocs = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t idx : dataset.test_idx) {
      const Graph& graph = dataset.graphs[idx];
      const Tensor reference = EagerLogits(&model, {&graph});
      const Tensor row = engine.Predict(graph);
      EXPECT_TRUE(BitwiseEqual(row, reference));
    }
    if (round == 0) warm_allocs = engine.stats().heap_allocs;
  }
  const serve::InferenceStats stats = engine.stats();
  EXPECT_EQ(stats.batches,
            static_cast<std::int64_t>(kRounds * dataset.test_idx.size()));
  // Whatever the first round grew, later rounds grow nothing.
  EXPECT_EQ(stats.heap_allocs, warm_allocs);
}

INSTANTIATE_TEST_SUITE_P(GinAndOodGnn, SteadyStateZeroAlloc,
                         ::testing::Values(Method::kGin, Method::kOodGnn),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return ParamName(info.param);
                         });

// ---------------------------------------------------------------------------
// AddressSanitizer builds poison free extents and one granule past every
// block, so an overrun that separate heap blocks would expose is still
// reported although neighbouring tensors share a slab, and they fill
// unfilled storage with NaN.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaDeathTest, WriteOnePastTheAlignedExtentIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Tensor t(3, 5);  // 15 floats; the aligned extent is 16.
        volatile float* p = t.data();
        p[AlignUpFloats(static_cast<std::size_t>(t.size()))] = 1.f;
      },
      "AddressSanitizer");
}

// The unfilled allocation path (Tensor::Unfilled) is NaN-filled under
// ASan, so an op that leaves an element unwritten fails the bitwise
// suites instead of passing on whatever the arena held before.
TEST(ArenaTest, UnfilledStorageIsNaNFilledUnderAddressSanitizer) {
  {
    Tensor stale(6, 9, 0.5f);  // Leaves 0.5f in the extent reused below.
  }
  Tensor t = Tensor::Unfilled(6, 9);
  for (int i = 0; i < t.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, t.data() + i, sizeof(bits));
    EXPECT_EQ(bits, 0xFFFFFFFFu) << "element " << i;
    EXPECT_TRUE(std::isnan(t[i])) << "element " << i;
  }
}
#endif

}  // namespace
}  // namespace oodgnn
