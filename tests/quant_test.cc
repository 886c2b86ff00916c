// Q8_0 weight quantization tests (DESIGN.md §16): round-trip error
// properties of the block quantizer, analytic error bounds for the
// quantized matmul, the OODQ serialized snapshot format (round-trip +
// corruption rejection), the --quantize/OODGNN_QUANTIZE flag plumbing,
// and the engine-level parity gate — every model method served with
// QuantizeMode::kOn must reproduce its fp32 logits within the
// tolerance committed here. Quantized serving is approximate BY
// DESIGN (the one deliberate exception to the repo's bitwise
// determinism contract), so this file is where the approximation is
// pinned: if quantization error regresses, these bounds fail.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/triangles.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/batch.h"
#include "src/nn/serialize.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/inference.h"
#include "src/tensor/kernels.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

using serve::InferenceEngine;
using serve::InferenceOptions;
using serve::ModelSpec;
using serve::QuantizeMode;
using test::TempPath;

/// Engine-level tolerance for quantized serving: max absolute logit
/// deviation from the fp32 engine, per graph, for every method. This
/// is the committed accuracy contract of --quantize.
constexpr float kQuantLogitTolerance = 0.25f;

Tensor RandomTensor(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandomNormal(rows, cols, &rng);
  for (int i = 0; i < t.size(); i += 7) t[i] = 0.f;
  return t;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

GraphDataset TinyDataset() {
  TrianglesConfig config;
  config.num_train = 12;
  config.num_valid = 4;
  config.num_test = 6;
  config.train_max_nodes = 12;
  config.test_max_nodes = 16;
  return MakeTrianglesDataset(config, 77);
}

EncoderConfig TinyEncoder(int feature_dim) {
  EncoderConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.dropout = 0.5f;  // Identity in eval mode.
  return config;
}

/// Matrix params (rows>1 && cols>1) are the quantization surface —
/// must match the QuantEligible rule in nn/serialize.cc and
/// serve/inference.cc.
bool Eligible(const Tensor& value) {
  return value.rows() > 1 && value.cols() > 1;
}

// ---------------------------------------------------------------------------
// Block quantizer properties.
// ---------------------------------------------------------------------------

TEST(QuantTest, RoundTripErrorWithinHalfScalePerBlock) {
  // Shapes chosen to cover: single full block, tail-only block, many
  // blocks with a tail, and the degenerate 1x1.
  const int shapes[][2] = {{3, 32}, {5, 37}, {2, 31}, {7, 100}, {1, 1}, {4, 64}};
  for (const auto& shape : shapes) {
    const Tensor w =
        RandomTensor(shape[0], shape[1],
                     static_cast<uint64_t>(shape[0] * 1000 + shape[1]));
    const QuantizedTensor qw = QuantizeQ8(w);
    ASSERT_EQ(qw.rows, w.rows());
    ASSERT_EQ(qw.cols, w.cols());
    const Tensor back = DequantizeQ8(qw);
    for (int r = 0; r < w.rows(); ++r) {
      for (int c = 0; c < w.cols(); ++c) {
        const float scale = qw.srow(r)[c / kQuantBlockSize];
        const float err = std::fabs(w.at(r, c) - back.at(r, c));
        // Half-scale bound with a whisker of rounding slack.
        EXPECT_LE(err, 0.5f * scale * (1.f + 1e-4f) + 1e-12f)
            << shape[0] << "x" << shape[1] << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(QuantTest, AllZeroBlockHasZeroScaleAndExactReconstruction) {
  Tensor w(3, 64);  // Zero-initialized: every block all-zero.
  const QuantizedTensor qw = QuantizeQ8(w);
  for (float s : qw.scales) EXPECT_EQ(s, 0.f);
  for (int8_t q : qw.q) EXPECT_EQ(q, 0);
  EXPECT_TRUE(BitwiseEqual(w, DequantizeQ8(qw)));
}

TEST(QuantTest, SingleOutlierBlockStillBoundsSmallValues) {
  // One huge value sets the block scale; the small values collapse to
  // code 0 but their absolute error stays within the half-scale bound,
  // and the outlier itself reconstructs near-exactly.
  Tensor w(2, 32);
  for (int c = 0; c < 32; ++c) {
    w.at(0, c) = 1e-3f * static_cast<float>(c % 5);
    w.at(1, c) = 1e-3f;
  }
  w.at(0, 17) = 100.f;
  const QuantizedTensor qw = QuantizeQ8(w);
  const float scale = qw.srow(0)[0];
  EXPECT_NEAR(scale, 100.f / 127.f, 1e-4f);
  const Tensor back = DequantizeQ8(qw);
  EXPECT_NEAR(back.at(0, 17), 100.f, 0.5f * scale);
  for (int c = 0; c < 32; ++c) {
    EXPECT_LE(std::fabs(w.at(0, c) - back.at(0, c)), 0.5f * scale + 1e-12f);
  }
  // Row 1 has no outlier: its scale reflects its own small magnitude.
  EXPECT_LT(qw.srow(1)[0], 1e-4f);
}

TEST(QuantTest, RequantizationIsStable) {
  // Publish no-drift contract: the engine writes the dequantized image
  // back as the served fp32 weights, so the next publish re-quantizes
  // an already-quantized image. The codes must be a fixed point and
  // the dequantized image must not wander.
  const Tensor w = RandomTensor(9, 77, 2024);
  QuantizedTensor q1 = QuantizeQ8(w);
  Tensor image = DequantizeQ8(q1);
  for (int cycle = 0; cycle < 3; ++cycle) {
    const QuantizedTensor q2 = QuantizeQ8(image);
    EXPECT_EQ(q1.q, q2.q) << "codes drifted on cycle " << cycle;
    const Tensor next = DequantizeQ8(q2);
    for (int i = 0; i < image.size(); ++i) {
      const float scale = q2.srow(i / image.cols())[(i % image.cols()) /
                                                    kQuantBlockSize];
      EXPECT_LE(std::fabs(image[i] - next[i]), 1e-3f * scale + 1e-12f)
          << "image drifted on cycle " << cycle;
    }
    image = next;
  }
}

TEST(QuantTest, QuantMatmulWithinAnalyticErrorBound) {
  // |fp32 - quant| per output element is bounded by the accumulated
  // per-block half-scale weight error weighted by |a|.
  const Tensor a = RandomTensor(11, 53, 31);
  const Tensor w = RandomTensor(53, 41, 37);
  const QuantizedTensor qw = QuantizeQ8(w);
  Tensor fp32(11, 41);
  kernels::MatMulAcc(a, w, &fp32, 0, a.rows());
  Tensor quant(11, 41);
  kernels::MatMulQuantAcc(a, qw, &quant, 0, a.rows());
  bool any_difference = false;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < w.cols(); ++j) {
      float bound = 0.f;
      for (int p = 0; p < a.cols(); ++p) {
        bound += std::fabs(a.at(i, p)) * 0.5f * qw.srow(p)[j / kQuantBlockSize];
      }
      const float err = std::fabs(fp32.at(i, j) - quant.at(i, j));
      EXPECT_LE(err, bound * 1.01f + 1e-5f) << "(" << i << "," << j << ")";
      any_difference = any_difference || err > 0.f;
    }
  }
  EXPECT_TRUE(any_difference);  // Quantization genuinely happened.
}

// ---------------------------------------------------------------------------
// OODQ snapshot format.
// ---------------------------------------------------------------------------

TEST(QuantTest, QuantizedStateRoundTripsThroughOodqFile) {
  GraphDataset dataset = TinyDataset();
  Rng rng(21);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  // Perturb the buffers so the test proves they round trip (fp32).
  for (Tensor* buffer : model.Buffers()) {
    for (int i = 0; i < buffer->size(); ++i) {
      (*buffer)[i] += 0.125f * static_cast<float>(i % 3);
    }
  }
  const std::string path = TempPath("quant_state.oodq");
  ASSERT_TRUE(SaveQuantizedModelState(path, model));

  Rng rng2(22);
  GraphPredictionModel loaded(Method::kGin, TinyEncoder(dataset.feature_dim),
                              dataset.OutputDim(), &rng2);
  ASSERT_TRUE(LoadQuantizedModelState(path, &loaded));

  const std::vector<Variable> orig = model.Parameters();
  const std::vector<Variable> got = loaded.Parameters();
  ASSERT_EQ(orig.size(), got.size());
  int quantized_params = 0;
  for (size_t i = 0; i < orig.size(); ++i) {
    const Tensor& value = orig[i].value();
    if (Eligible(value)) {
      // Matrix params come back as the dequantized image — exactly.
      EXPECT_TRUE(BitwiseEqual(DequantizeQ8(QuantizeQ8(value)), got[i].value()))
          << "param " << i;
      ++quantized_params;
    } else {
      // Vectors/scalars (biases, norms) stay fp32 and exact.
      EXPECT_TRUE(BitwiseEqual(value, got[i].value())) << "param " << i;
    }
  }
  EXPECT_GT(quantized_params, 0);
  const std::vector<Tensor*> orig_buffers = model.Buffers();
  const std::vector<Tensor*> got_buffers = loaded.Buffers();
  ASSERT_EQ(orig_buffers.size(), got_buffers.size());
  for (size_t i = 0; i < orig_buffers.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(*orig_buffers[i], *got_buffers[i]));
  }
  std::remove(path.c_str());
}

TEST(QuantTest, OodqRejectsCorruptTruncatedTrailingAndMismatched) {
  GraphDataset dataset = TinyDataset();
  Rng rng(23);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  const std::string path = TempPath("quant_corrupt.oodq");
  ASSERT_TRUE(SaveQuantizedModelState(path, model));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto write_bytes = [&](const std::string& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };
  Rng rng2(24);
  GraphPredictionModel victim(Method::kGin, TinyEncoder(dataset.feature_dim),
                              dataset.OutputDim(), &rng2);
  const Tensor before = victim.Parameters()[0].value();

  // Flipped payload byte: checksum mismatch.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x5a);
  write_bytes(corrupt);
  EXPECT_FALSE(LoadQuantizedModelState(path, &victim));
  EXPECT_FALSE(LoadAnyModelState(path, &victim));

  // Truncation: framed-size mismatch.
  write_bytes(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadQuantizedModelState(path, &victim));

  // Trailing garbage after the framed payload.
  write_bytes(bytes + "x");
  EXPECT_FALSE(LoadQuantizedModelState(path, &victim));

  // Wrong container: an fp32 OODM file is not an OODQ file (and vice
  // versa) — each loader rejects the other's magic.
  const std::string fp32_path = TempPath("quant_fp32.oodm");
  ASSERT_TRUE(SaveModelState(fp32_path, model));
  EXPECT_FALSE(LoadQuantizedModelState(fp32_path, &victim));
  write_bytes(bytes);
  EXPECT_FALSE(LoadModelState(path, &victim));

  // Architecture mismatch: shapes are validated before any mutation.
  EncoderConfig bigger_config = TinyEncoder(dataset.feature_dim);
  bigger_config.hidden_dim = 16;
  Rng rng3(25);
  GraphPredictionModel bigger(Method::kGin, bigger_config, dataset.OutputDim(),
                              &rng3);
  ASSERT_TRUE(SaveQuantizedModelState(path, bigger));
  EXPECT_FALSE(LoadQuantizedModelState(path, &victim));

  // Validate-then-apply: every rejected load left the module untouched.
  EXPECT_TRUE(BitwiseEqual(before, victim.Parameters()[0].value()));
  std::remove(path.c_str());
  std::remove(fp32_path.c_str());
}

TEST(QuantTest, LoadAnyModelStateDispatchesOnMagic) {
  GraphDataset dataset = TinyDataset();
  Rng rng(26);
  GraphPredictionModel model(Method::kGin, TinyEncoder(dataset.feature_dim),
                             dataset.OutputDim(), &rng);
  const std::string fp32_path = TempPath("quant_any.oodm");
  const std::string q8_path = TempPath("quant_any.oodq");
  ASSERT_TRUE(SaveModelState(fp32_path, model));
  ASSERT_TRUE(SaveQuantizedModelState(q8_path, model));

  Rng rng2(27);
  GraphPredictionModel fp32_loaded(Method::kGin,
                                   TinyEncoder(dataset.feature_dim),
                                   dataset.OutputDim(), &rng2);
  ASSERT_TRUE(LoadAnyModelState(fp32_path, &fp32_loaded));
  EXPECT_TRUE(BitwiseEqual(model.Parameters()[0].value(),
                           fp32_loaded.Parameters()[0].value()));

  Rng rng3(28);
  GraphPredictionModel q8_loaded(Method::kGin, TinyEncoder(dataset.feature_dim),
                                 dataset.OutputDim(), &rng3);
  ASSERT_TRUE(LoadAnyModelState(q8_path, &q8_loaded));
  // Find a matrix param and check it came back quantized, proving the
  // OODQ branch (not the fp32 one) ran.
  const std::vector<Variable> orig = model.Parameters();
  const std::vector<Variable> got = q8_loaded.Parameters();
  for (size_t i = 0; i < orig.size(); ++i) {
    if (!Eligible(orig[i].value())) continue;
    EXPECT_TRUE(BitwiseEqual(DequantizeQ8(QuantizeQ8(orig[i].value())),
                             got[i].value()));
    break;
  }
  EXPECT_FALSE(LoadAnyModelState(fp32_path + ".does_not_exist", &q8_loaded));
  std::remove(fp32_path.c_str());
  std::remove(q8_path.c_str());
}

// ---------------------------------------------------------------------------
// Flag plumbing.
// ---------------------------------------------------------------------------

TEST(QuantTest, GetQuantizeFlagPrecedence) {
  unsetenv("OODGNN_QUANTIZE");
  {
    char arg0[] = "prog";
    char* argv[] = {arg0};
    Flags flags(1, argv);
    EXPECT_FALSE(flags.GetQuantize());
    EXPECT_TRUE(flags.GetQuantize(/*fallback=*/true));
  }
  {
    char arg0[] = "prog";
    char arg1[] = "--quantize";
    char* argv[] = {arg0, arg1};
    Flags flags(2, argv);
    EXPECT_TRUE(flags.GetQuantize());
  }
  setenv("OODGNN_QUANTIZE", "1", 1);
  {
    char arg0[] = "prog";
    char* argv[] = {arg0};
    Flags flags(1, argv);
    EXPECT_TRUE(flags.GetQuantize());  // Env fills in when flag absent.
  }
  {
    // Explicit flag wins over env.
    char arg0[] = "prog";
    char arg1[] = "--quantize=false";
    char* argv[] = {arg0, arg1};
    Flags flags(2, argv);
    EXPECT_FALSE(flags.GetQuantize());
  }
  setenv("OODGNN_QUANTIZE", "0", 1);
  {
    char arg0[] = "prog";
    char* argv[] = {arg0};
    Flags flags(1, argv);
    EXPECT_FALSE(flags.GetQuantize(/*fallback=*/true));  // Env beats fallback.
  }
  unsetenv("OODGNN_QUANTIZE");
}

// ---------------------------------------------------------------------------
// Engine-level parity gate: every method, quantized vs fp32.
// ---------------------------------------------------------------------------

class QuantParity : public ::testing::TestWithParam<Method> {};

TEST_P(QuantParity, QuantizedEngineMatchesFp32WithinTolerance) {
  const Method method = GetParam();
  GraphDataset dataset = TinyDataset();
  Rng rng(31);
  ModelSpec spec;
  spec.method = method;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(method, spec.encoder, spec.output_dim, &rng);

  std::vector<const Graph*> graphs;
  for (size_t idx : dataset.test_idx) graphs.push_back(&dataset.graphs[idx]);

  InferenceOptions fp32_options;
  fp32_options.quantize = QuantizeMode::kOff;
  InferenceEngine fp32_engine(spec, fp32_options);
  fp32_engine.SyncFrom(model);

  InferenceOptions q8_options;
  q8_options.quantize = QuantizeMode::kOn;
  q8_options.num_workers = 2;
  q8_options.max_batch_graphs = 3;
  InferenceEngine q8_engine(spec, q8_options);
  q8_engine.SyncFrom(model);

  std::vector<Tensor> fp32_rows;
  for (const Graph* graph : graphs) {
    fp32_rows.push_back(fp32_engine.Predict(*graph));
  }
  const bool was_profiling = obs::ProfilingEnabled();
  obs::SetProfilingEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  float max_diff = 0.f;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Tensor q8_row = q8_engine.Predict(*graphs[i]);
    ASSERT_EQ(fp32_rows[i].size(), q8_row.size());
    for (int j = 0; j < q8_row.size(); ++j) {
      max_diff = std::max(max_diff, std::fabs(fp32_rows[i][j] - q8_row[j]));
    }
  }
  // Within the committed tolerance...
  EXPECT_LE(max_diff, kQuantLogitTolerance) << MethodName(method);
  // ...but genuinely quantized: bitwise-identical logits would mean
  // the int8 path silently never engaged.
  EXPECT_GT(max_diff, 0.f) << MethodName(method);
  // These methods multiply only by quantized weights, so a quantized
  // engine dispatches no fp32 matmul at all. (max_diff cannot see a
  // bypass: the dequantized image is also the fp32 weight.)
  const std::vector<Method> weight_only = {
      Method::kGcn, Method::kGcnVirtual, Method::kGin,      Method::kGinVirtual,
      Method::kPna, Method::kOodGnn,     Method::kGraphSage};
  if (std::find(weight_only.begin(), weight_only.end(), method) !=
      weight_only.end()) {
    std::int64_t fp32_matmuls = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::Global().GetSnapshot().counters) {
      if (name == "kernel/matmul/calls") fp32_matmuls = value;
    }
    EXPECT_EQ(fp32_matmuls, 0) << MethodName(method);
  }
  obs::MetricsRegistry::Global().Reset();
  obs::SetProfilingEnabled(was_profiling);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, QuantParity,
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

// ---------------------------------------------------------------------------
// The process-wide toggle is sampled at every publish: flipping it
// between SyncFrom calls rolls int8 serving on and off like any weight
// rollout, and flipping it back restores fp32 serving bitwise.
// ---------------------------------------------------------------------------

TEST(QuantTest, QuantizeFlipAcrossSyncFromFollowsTheToggle) {
  const bool saved_toggle = QuantizeEnabled();
  GraphDataset dataset = TinyDataset();
  Rng rng(41);
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);

  const Graph& graph = dataset.graphs[dataset.test_idx[1]];
  Tensor fp32_reference;
  {
    NoGradGuard no_grad;
    Rng fwd(999);
    fp32_reference =
        model.Predict(GraphBatch::FromGraphs({&graph}), /*training=*/false,
                      &fwd)
            .value();
  }

  SetQuantizeEnabled(false);
  InferenceOptions options;  // QuantizeMode::kFollowProcess.
  options.num_workers = 2;
  options.max_batch_graphs = 2;
  options.max_batch_wait_us = 0;
  InferenceEngine engine(spec, options);
  engine.SyncFrom(model);
  EXPECT_TRUE(BitwiseEqual(engine.Predict(graph), fp32_reference));

  // Flip quantization on: the next publish quantizes.
  SetQuantizeEnabled(true);
  engine.SyncFrom(model);
  const Tensor quantized = engine.Predict(graph);
  EXPECT_FALSE(BitwiseEqual(quantized, fp32_reference));  // Int8 engaged.
  float max_diff = 0.f;
  for (int j = 0; j < fp32_reference.size(); ++j) {
    max_diff = std::max(max_diff, std::fabs(fp32_reference[j] - quantized[j]));
  }
  EXPECT_LE(max_diff, kQuantLogitTolerance);

  // Flip back off: fp32 serving returns, bitwise.
  SetQuantizeEnabled(false);
  engine.SyncFrom(model);
  EXPECT_TRUE(BitwiseEqual(engine.Predict(graph), fp32_reference));
  SetQuantizeEnabled(saved_toggle);
}

// ---------------------------------------------------------------------------
// Publish telemetry.
// ---------------------------------------------------------------------------

TEST(QuantTest, QuantizedPublishesAdvanceQuantCounters) {
  obs::MetricsRegistry::Global().Reset();
  GraphDataset dataset = TinyDataset();
  Rng rng(51);
  ModelSpec spec;
  spec.method = Method::kGin;
  spec.encoder = TinyEncoder(dataset.feature_dim);
  spec.output_dim = dataset.OutputDim();
  GraphPredictionModel model(spec.method, spec.encoder, spec.output_dim, &rng);

  InferenceOptions options;
  options.quantize = QuantizeMode::kOn;
  InferenceEngine engine(spec, options);
  engine.SyncFrom(model);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().GetSnapshot();
  std::int64_t publishes = -1, params = -1, bytes = -1;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "serve/quant/publishes") publishes = value;
    if (name == "serve/quant/params") params = value;
    if (name == "serve/quant/bytes") bytes = value;
  }
  // Construction publishes once (fresh weights), SyncFrom again.
  EXPECT_GE(publishes, 2);
  EXPECT_GT(params, 0);
  EXPECT_GT(bytes, 0);
}

}  // namespace
}  // namespace oodgnn
