// Scalar-oracle tests for the SIMD kernel mirrors (DESIGN.md §16).
// The serial scalar kernels in src/tensor/kernels.{h,cc} are the
// bitwise-determinism oracle of the whole repo; every vectorized
// mirror in src/tensor/simd.{h,cc} must reproduce them *bitwise* — not
// approximately, NaN payloads aside (see BitwiseEqual) — across
// randomized shapes (including tails that are not a multiple of the
// vector width and odd column counts that make row starts unaligned),
// empty ranges, arbitrary range partitions
// (standing in for thread chunking), adversarial values (±0, NaN,
// ±inf, denormals), and, at the Backend dispatch level, thread counts
// 1/2/8 with the vector path toggled on and off.
//
// On a build without a vector ISA (or a CPU without AVX2) the simd::
// functions delegate to the scalar kernels, so every comparison here
// degenerates to scalar==scalar and still passes. The matmul family
// has a second body, simd::avx512: each matmul test runs once per body,
// as SimdTest.<name> on the AVX2 (or NEON) body and as
// SimdAvx512Test.<name> on the AVX-512 one, which is skipped on a CPU
// without avx512f.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
#include "src/tensor/segment_plan.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

Tensor RandomTensor(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandomNormal(rows, cols, &rng);
  // A sprinkle of exact zeros exercises the matmul zero-skip branch,
  // which both the scalar and the vector path must take on the same
  // broadcast scalars.
  for (int i = 0; i < t.size(); i += 7) t[i] = 0.f;
  return t;
}

/// RandomTensor with about `zero_pct` percent of its elements set to
/// exact zeros at random positions, like the post-ReLU activations the
/// encoder's Linear layers multiply.
Tensor SparseTensor(int rows, int cols, int zero_pct, uint64_t seed) {
  Tensor t = RandomTensor(rows, cols, seed);
  Rng rng(seed + 1);
  for (int i = 0; i < t.size(); ++i) {
    if (rng.Uniform() * 100.0 < zero_pct) t[i] = 0.f;
  }
  return t;
}

/// The values the bitwise contract must survive: signed zeros, quiet
/// NaN, infinities, and denormals.
constexpr float kSpecials[] = {
    0.f,
    -0.f,
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    1e-41f,  // single-precision denormal
    -1e-41f,
    std::numeric_limits<float>::denorm_min(),
};

/// Laces a random tensor with the special values.
Tensor SpecialTensor(int rows, int cols, uint64_t seed) {
  Tensor t = RandomTensor(rows, cols, seed);
  for (int i = 0; i < t.size(); ++i) {
    if (i % 5 == 3) t[i] = kSpecials[(static_cast<size_t>(i) / 5) % 8];
  }
  return t;
}

/// The vector-vs-scalar contract: the same shape, NaN in exactly the
/// same elements, and memcmp equality for every other element, so +0
/// and -0, denormals and infinities still compare exactly (AllClose
/// cannot tell them apart). Which NaN payload survives NaN + NaN is
/// not compared: x86 and ARM keep the first operand's, and C++ leaves
/// the operand order of `a + b` to the compiler, which may put a
/// register accumulator first where the scalar code puts the product.
bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  const float* x = a.data();
  const float* y = b.data();
  for (int i = 0; i < a.size(); ++i) {
    const bool nan = std::isnan(x[i]);
    if (nan != std::isnan(y[i])) return false;
    if (!nan && std::memcmp(x + i, y + i, sizeof(float)) != 0) return false;
  }
  return true;
}

/// Runs the scalar kernel over the full range [0, n) into one copy of
/// `out_init` and the vector kernel into another, asserts bitwise
/// equality, then re-runs the vector kernel over several two-piece
/// partitions of the range (including empty and unaligned pieces — the
/// shapes a thread partition produces) and asserts each matches too.
void ExpectRangeKernelBitwise(
    int n, const Tensor& out_init,
    const std::function<void(Tensor*, int, int)>& scalar,
    const std::function<void(Tensor*, int, int)>& vector,
    const std::string& what) {
  Tensor want = out_init;
  scalar(&want, 0, n);
  Tensor got = out_init;
  vector(&got, 0, n);
  EXPECT_TRUE(BitwiseEqual(want, got)) << what << ": full range diverged";
  for (int cut : {0, 1, n / 3, n / 2, n - 1, n}) {
    if (cut < 0 || cut > n) continue;
    Tensor split = out_init;
    vector(&split, 0, cut);
    vector(&split, cut, n);
    EXPECT_TRUE(BitwiseEqual(want, split))
        << what << ": partition at " << cut << " diverged";
  }
}

TEST(SimdTest, ToggleClampsToAvailabilityAndRestores) {
  const std::string isa = simd::IsaName();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "neon" ||
              isa == "scalar");
  if (!simd::Available()) {
    EXPECT_EQ(isa, "scalar");
  }
  // The name is that of the matmul body a vector dispatch runs.
  EXPECT_EQ(isa == "avx512",
            simd::Available() && simd::avx512::Available());
  const bool before = simd::Enabled();
  EXPECT_TRUE(!before || simd::Available());  // Enabled ⇒ Available
  {
    simd::ScopedSimdEnabled on(true);
    EXPECT_EQ(simd::Enabled(), simd::Available());  // clamped
    {
      simd::ScopedSimdEnabled off(false);
      EXPECT_FALSE(simd::Enabled());
    }
    EXPECT_EQ(simd::Enabled(), simd::Available());
  }
  EXPECT_EQ(simd::Enabled(), before);
}

// --- dense matmul family ------------------------------------------------

/// One vector body of the matmul family: simd.cc's AVX2 one (NEON on
/// aarch64, the oracle where no vector ISA is compiled in), whose tests
/// always run, or the AVX-512 one, whose SimdAvx512Test cases skip on a
/// CPU without avx512f.
struct MatMulBody {
  const char* name;
  decltype(&simd::MatMulWithTail) with_tail;
  decltype(&simd::MatMulTransAAcc) trans_a;
  decltype(&simd::MatMulTransBAcc) trans_b;
};

constexpr MatMulBody kVectorBody = {"avx2", simd::MatMulWithTail,
                                    simd::MatMulTransAAcc,
                                    simd::MatMulTransBAcc};
constexpr MatMulBody kAvx512Body = {"avx512", simd::avx512::MatMulWithTail,
                                    simd::avx512::MatMulTransAAcc,
                                    simd::avx512::MatMulTransBAcc};

class SimdAvx512Test : public testing::Test {
 protected:
  void SetUp() override {
    if (!simd::avx512::Available()) {
      GTEST_SKIP() << "CPU without avx512f: the AVX-512 matmul body is "
                      "not run";
    }
  }
};

struct MatMulShape {
  int m, k, n;
  int zero_pct = 0;      ///< extra exact zeros in the a operand, percent
  bool one_hot = false;  ///< a's rows hold one 1 each (one-hot features)
};

constexpr MatMulShape kMatMulShapes[] = {
    {1, 1, 1},     // degenerate
    {7, 3, 5},     // everything below one vector width
    {3, 8, 16},    // exact vector multiples
    {33, 16, 8},   // row count with a tail
    {37, 29, 43},  // all-odd: unaligned rows + tails in every loop
    {64, 64, 64},  // one full 64-column tile, one aᵀ·b row block
    {5, 31, 9},
    {2, 300, 17},  // long contraction
    // Encoder Linear: post-ReLU input, three aᵀ·b row blocks, a 4-row
    // a·bᵀ tile remainder.
    {131, 64, 64, 35},
    // Wide: two full tiles, then a vector and a scalar remainder (at 16
    // lanes: one 128-column term-list tile, four 32-column dense tiles
    // and four 32-row a·bᵀ panels, each then a vector and 6 scalars).
    {70, 130, 150},
    // One-hot input rows: the first Linear over TRIANGLES features, and
    // term lists only, as wide as the wide shape.
    {37, 17, 64, 0, true},
    {13, 17, 10, 0, true},
    {37, 17, 150, 0, true},
};

/// kMatMulShapes, then a sweep of 13-row products (three 4-row tiles and
/// a remainder row) over k ∈ {3, 17, 64, 128, 300} and
/// n ∈ {8, 10, 16, 32, 48, 64, 80, 144, 150}, alternately dense and with
/// half of a zero. At 16 lanes n = 16, 48 and 144 end in a one-vector
/// tile or panel after zero, one and four 32-column ones.
std::vector<MatMulShape> MatMulShapes() {
  std::vector<MatMulShape> shapes(std::begin(kMatMulShapes),
                                  std::end(kMatMulShapes));
  int i = 0;
  for (int k : {3, 17, 64, 128, 300}) {
    for (int n : {8, 10, 16, 32, 48, 64, 80, 144, 150}) {
      shapes.push_back({13, k, n, (i++ % 2) * 50});
    }
  }
  return shapes;
}

std::string ShapeName(const MatMulShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n) + (s.one_hot ? " one-hot" : "");
}

/// The [m×k] a operand of `s`.
Tensor MatMulCoefs(const MatMulShape& s, uint64_t seed) {
  if (!s.one_hot) return SparseTensor(s.m, s.k, s.zero_pct, seed);
  Tensor a(s.m, s.k);
  Rng rng(seed);
  for (int r = 0; r < s.m; ++r) {
    a.at(r, static_cast<int>(rng.UniformInt(0, s.k - 1))) = 1.f;
  }
  return a;
}

/// Runs a·b as the forward MatMul does: MatMulWithTail with an empty
/// tail, whose sums start from +0.
void ExpectMatMulBitwise(const MatMulBody& body, const Tensor& a,
                         const Tensor& b, const Tensor& out_init,
                         const std::string& what) {
  const kernels::MatMulTail none;
  ExpectRangeKernelBitwise(
      a.rows(), out_init,
      [&](Tensor* out, int r0, int r1) {
        kernels::MatMulWithTail(a, b, none, out, r0, r1);
      },
      [&](Tensor* out, int r0, int r1) {
        body.with_tail(a, b, none, out, r0, r1);
      },
      std::string(body.name) + " " + what);
}

void ExpectMatMulTransABitwise(const MatMulBody& body, const Tensor& a,
                               const Tensor& b, const Tensor& out_init,
                               const std::string& what) {
  ExpectRangeKernelBitwise(
      a.cols(), out_init,
      [&](Tensor* out, int r0, int r1) {
        kernels::MatMulTransAAcc(a, b, out, r0, r1);
      },
      [&](Tensor* out, int r0, int r1) { body.trans_a(a, b, out, r0, r1); },
      std::string(body.name) + " " + what);
}

void ExpectMatMulTransBBitwise(const MatMulBody& body, const Tensor& a,
                               const Tensor& b, const Tensor& out_init,
                               const std::string& what) {
  ExpectRangeKernelBitwise(
      a.rows(), out_init,
      [&](Tensor* out, int r0, int r1) {
        kernels::MatMulTransBAcc(a, b, out, r0, r1);
      },
      [&](Tensor* out, int r0, int r1) { body.trans_b(a, b, out, r0, r1); },
      std::string(body.name) + " " + what);
}

void CheckMatMul(const MatMulBody& body) {
  for (const MatMulShape& s : MatMulShapes()) {
    const Tensor a = MatMulCoefs(s, 11 * static_cast<uint64_t>(s.m));
    const Tensor b = RandomTensor(s.k, s.n, 13 * static_cast<uint64_t>(s.n));
    const Tensor out_init = RandomTensor(s.m, s.n, 17);  // overwritten
    ExpectMatMulBitwise(body, a, b, out_init, "matmul " + ShapeName(s));
  }
}

void CheckMatMulTransA(const MatMulBody& body) {
  for (const MatMulShape& s : MatMulShapes()) {
    const Tensor a = MatMulCoefs(s, 19 * static_cast<uint64_t>(s.k));
    const Tensor b = RandomTensor(s.m, s.n, 23 * static_cast<uint64_t>(s.n));
    const Tensor out_init = RandomTensor(s.k, s.n, 29);
    ExpectMatMulTransABitwise(body, a, b, out_init,
                              "matmul_ta " + ShapeName(s));
    // A dead column of a (a unit ReLU never lets through) under a stored
    // −0 row: the oracle adds nothing to that row, so its −0 stays,
    // where a multi-row tile's ±0 products could turn it into +0.
    Tensor dead = a;
    Tensor stored = out_init;
    const int p = s.k / 2;
    for (int i = 0; i < s.m; ++i) dead.at(i, p) = 0.f;
    for (int j = 0; j < s.n; ++j) stored.at(p, j) = -0.f;
    ExpectMatMulTransABitwise(body, dead, b, stored,
                              "matmul_ta stored -0 " + ShapeName(s));
  }
}

void CheckMatMulTransB(const MatMulBody& body) {
  for (const MatMulShape& s : MatMulShapes()) {
    const Tensor a = MatMulCoefs(s, 31 * static_cast<uint64_t>(s.m));
    const Tensor b = RandomTensor(s.n, s.k, 37 * static_cast<uint64_t>(s.k));
    const Tensor out_init = RandomTensor(s.m, s.n, 41);
    ExpectMatMulTransBBitwise(body, a, b, out_init,
                              "matmul_tb " + ShapeName(s));
  }
}

void CheckMatMulSpecialValues(const MatMulBody& body) {
  // NaN placement, inf·0 → NaN, signed-zero results and denormal
  // products must all come out of the vector lanes exactly as the
  // scalar oracle produces them (same operand order, each multiply-add
  // fused in both). The a operand carries NaN, ±inf, ±0 and denormal
  // coefficients throughout. Against a finite b the multi-row tiles
  // run and must add the zero coefficients' ±0 products without effect;
  // against a b with NaN and ±inf (where 0·inf is NaN) and into stored
  // outputs with −0 (where −0 + +0 is +0), only the one-row nonzero
  // term lists may run. Short contractions keep most sums finite; the
  // shapes reach a full 64-column tile, vector and scalar remainders,
  // 4-row tiles with remainder rows and two aᵀ·b row blocks, and at 16
  // lanes a 128-column term-list tile and 32-column dense tiles.
  for (const MatMulShape& s : {MatMulShape{13, 21, 19}, MatMulShape{6, 4, 75},
                               MatMulShape{67, 5, 9}, MatMulShape{13, 17, 80},
                               MatMulShape{9, 64, 10},
                               MatMulShape{9, 7, 150}}) {
    const std::string shape = ShapeName(s);
    const Tensor a = SpecialTensor(s.m, s.k, 43);
    for (bool special_b : {false, true}) {
      const auto make_b = [&](int rows, int cols, uint64_t seed) {
        return special_b ? SpecialTensor(rows, cols, seed)
                         : RandomTensor(rows, cols, seed);
      };
      const Tensor b = make_b(s.k, s.n, 47);
      const Tensor bm = make_b(s.m, s.n, 53);
      const Tensor bt = make_b(s.n, s.k, 59);
      const std::string what = shape + (special_b ? " special b" : "");
      ExpectMatMulBitwise(body, a, b, RandomTensor(s.m, s.n, 61),
                          "matmul specials " + what);
      ExpectMatMulTransABitwise(body, a, bm, RandomTensor(s.k, s.n, 67),
                                "matmul_ta specials " + what);
      ExpectMatMulTransABitwise(body, a, bm, SpecialTensor(s.k, s.n, 67),
                                "matmul_ta special out " + what);
      ExpectMatMulTransBBitwise(body, a, bt, SpecialTensor(s.m, s.n, 61),
                                "matmul_tb specials " + what);
    }
    // Dense a (1 in 7 coefficients zero) against a b with one ±inf or
    // NaN, each in a b row that some zero coefficient multiplies: a
    // multi-row tile would be chosen but for them, and its 0·inf would
    // be a NaN the oracle never computes.
    Tensor dense_a = RandomTensor(s.m, s.k, 71);
    Tensor b = RandomTensor(s.k, s.n, 73);
    b.at(s.k / 2, s.n / 2) = std::numeric_limits<float>::infinity();
    dense_a.at(0, s.k / 2) = 0.f;
    b.at(s.k - 1, s.n - 1) = std::numeric_limits<float>::quiet_NaN();
    dense_a.at(s.m - 1, s.k - 1) = 0.f;
    Tensor bm = RandomTensor(s.m, s.n, 79);
    bm.at(s.m / 2, 0) = -std::numeric_limits<float>::infinity();
    dense_a.at(s.m / 2, s.k - 1) = 0.f;
    ExpectMatMulBitwise(body, dense_a, b, RandomTensor(s.m, s.n, 61),
                        "matmul non-finite b " + shape);
    ExpectMatMulTransABitwise(body, dense_a, bm, RandomTensor(s.k, s.n, 67),
                              "matmul_ta non-finite b " + shape);
  }
}

TEST(SimdTest, MatMulBitwise) { CheckMatMul(kVectorBody); }
TEST_F(SimdAvx512Test, MatMulBitwise) { CheckMatMul(kAvx512Body); }

TEST(SimdTest, MatMulTransAAccBitwise) { CheckMatMulTransA(kVectorBody); }
TEST_F(SimdAvx512Test, MatMulTransAAccBitwise) {
  CheckMatMulTransA(kAvx512Body);
}

TEST(SimdTest, MatMulTransBAccBitwise) { CheckMatMulTransB(kVectorBody); }
TEST_F(SimdAvx512Test, MatMulTransBAccBitwise) {
  CheckMatMulTransB(kAvx512Body);
}

TEST(SimdTest, MatMulSpecialValuesBitwise) {
  CheckMatMulSpecialValues(kVectorBody);
}
TEST_F(SimdAvx512Test, MatMulSpecialValuesBitwise) {
  CheckMatMulSpecialValues(kAvx512Body);
}

// --- element-wise maps --------------------------------------------------

TEST(SimdTest, ElementwiseBitwise) {
  const Tensor x = RandomTensor(7, 13, 71);  // odd cols: rows unaligned
  const Tensor g = RandomTensor(7, 13, 73);
  const Tensor y_init = RandomTensor(7, 13, 79);
  const int n = x.size();
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* y, int i0, int i1) { kernels::Axpy(-1.75f, x, y, i0, i1); },
      [&](Tensor* y, int i0, int i1) { simd::Axpy(-1.75f, x, y, i0, i1); },
      "axpy");
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* y, int i0, int i1) { kernels::Scale(y, 0.3f, i0, i1); },
      [&](Tensor* y, int i0, int i1) { simd::Scale(y, 0.3f, i0, i1); },
      "scale");
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* y, int i0, int i1) { kernels::AddScalar(y, -2.5f, i0, i1); },
      [&](Tensor* y, int i0, int i1) { simd::AddScalar(y, -2.5f, i0, i1); },
      "add_scalar");
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* out, int i0, int i1) { kernels::Hadamard(x, g, out, i0, i1); },
      [&](Tensor* out, int i0, int i1) { simd::Hadamard(x, g, out, i0, i1); },
      "hadamard");
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* y, int i0, int i1) { kernels::HadamardAcc(g, x, y, i0, i1); },
      [&](Tensor* y, int i0, int i1) { simd::HadamardAcc(g, x, y, i0, i1); },
      "hadamard_acc");
}

TEST(SimdTest, ElementwiseSpecialValuesBitwise) {
  const Tensor x = SpecialTensor(5, 17, 83);
  const Tensor g = SpecialTensor(5, 17, 89);
  const Tensor y_init = SpecialTensor(5, 17, 97);
  const int n = x.size();
  for (float alpha : {1.0f, -0.0f, 0.5f}) {
    ExpectRangeKernelBitwise(
        n, y_init,
        [&](Tensor* y, int i0, int i1) { kernels::Axpy(alpha, x, y, i0, i1); },
        [&](Tensor* y, int i0, int i1) { simd::Axpy(alpha, x, y, i0, i1); },
        "axpy specials");
  }
  ExpectRangeKernelBitwise(
      n, y_init,
      [&](Tensor* out, int i0, int i1) { kernels::Hadamard(x, g, out, i0, i1); },
      [&](Tensor* out, int i0, int i1) { simd::Hadamard(x, g, out, i0, i1); },
      "hadamard specials");
}

TEST(SimdTest, ReluAndSquareBackwardBitwise) {
  struct Shape {
    int rows, cols;
  };
  for (const Shape& s : {Shape{1, 1}, Shape{7, 13}, Shape{3, 8},
                         Shape{5, 17}, Shape{11, 37}}) {
    const std::string shape =
        std::to_string(s.rows) + "x" + std::to_string(s.cols);
    // Random values, then the special-value tensor (±0, NaN, ±inf,
    // denormals) in x, the upstream gradient and the accumulator.
    for (bool special : {false, true}) {
      const auto make = [&](uint64_t seed) {
        return special ? SpecialTensor(s.rows, s.cols, seed)
                       : RandomTensor(s.rows, s.cols, seed);
      };
      const Tensor x = make(191);
      const Tensor g = make(193);
      const Tensor init = make(197);
      const std::string what = shape + (special ? " specials" : "");
      const int n = x.size();
      ExpectRangeKernelBitwise(
          n, init,
          [&](Tensor* out, int i0, int i1) { kernels::Relu(x, out, i0, i1); },
          [&](Tensor* out, int i0, int i1) { simd::Relu(x, out, i0, i1); },
          "relu " + what);
      ExpectRangeKernelBitwise(
          n, init,
          [&](Tensor* dx, int i0, int i1) {
            kernels::ReluBackwardAcc(g, x, dx, i0, i1);
          },
          [&](Tensor* dx, int i0, int i1) {
            simd::ReluBackwardAcc(g, x, dx, i0, i1);
          },
          "relu_backward " + what);
      ExpectRangeKernelBitwise(
          n, init,
          [&](Tensor* dx, int i0, int i1) {
            kernels::SquareBackwardAcc(g, x, dx, i0, i1);
          },
          [&](Tensor* dx, int i0, int i1) {
            simd::SquareBackwardAcc(g, x, dx, i0, i1);
          },
          "square_backward " + what);
    }
  }
}

/// A 1×cols row with every divisor and multiplier the broadcast kernels
/// must survive — ±0, ±inf, denormals and NaN — at even columns, both
/// inside the vector body and in the tail when cols > 2·8.
Tensor SpecialRow(int cols, uint64_t seed) {
  Tensor row = RandomTensor(1, cols, seed);
  const float specials[] = {
      0.f,
      -0.f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      1e-41f,
      -1e-41f,
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::quiet_NaN(),
  };
  for (int c = 0; c < cols; c += 2) {
    row[c] = specials[static_cast<size_t>(c / 2) % 8];
  }
  return row;
}

TEST(SimdTest, RowAndColVecBroadcastsBitwise) {
  struct Shape {
    int rows, cols;
  };
  for (const Shape& s : {Shape{1, 1}, Shape{7, 13}, Shape{4, 16},
                         Shape{9, 8}, Shape{23, 37}}) {
    const std::string shape =
        std::to_string(s.rows) + "x" + std::to_string(s.cols);
    for (bool special : {false, true}) {
      const Tensor a = special ? SpecialTensor(s.rows, s.cols, 199)
                               : RandomTensor(s.rows, s.cols, 199);
      const Tensor init = special ? SpecialTensor(s.rows, s.cols, 211)
                                  : RandomTensor(s.rows, s.cols, 211);
      // The column vector holds ±0, ±inf, denormals and NaN, laid out
      // per row.
      const Tensor col_values = special ? SpecialRow(s.rows, 227)
                                        : RandomTensor(1, s.rows, 227);
      const Tensor col = test::Transposed(col_values);
      const std::string what = shape + (special ? " specials" : "");
      using RowKernel =
          void (*)(const Tensor&, const Tensor&, Tensor*, int, int);
      struct Case {
        const char* name;
        RowKernel scalar;
        RowKernel vector;
        const Tensor* vec;
      };
      const Case cases[] = {
          {"mul_col_vec", kernels::MulColVec, simd::MulColVec, &col},
          {"mul_col_vec_acc", kernels::MulColVecAcc, simd::MulColVecAcc,
           &col},
      };
      for (const Case& c : cases) {
        ExpectRangeKernelBitwise(
            s.rows, init,
            [&](Tensor* out, int r0, int r1) {
              c.scalar(a, *c.vec, out, r0, r1);
            },
            [&](Tensor* out, int r0, int r1) {
              c.vector(a, *c.vec, out, r0, r1);
            },
            std::string(c.name) + " " + what);
      }
    }
  }
}

// --- column-ranged reductions and broadcast adjoints --------------------

TEST(SimdTest, ReductionAdjointsBitwise) {
  const Tensor a = RandomTensor(23, 37, 101);
  const Tensor row = RandomTensor(1, 37, 107);
  const Tensor colsum_init = RandomTensor(1, 37, 113);
  const Tensor full_init = RandomTensor(23, 37, 127);
  ExpectRangeKernelBitwise(
      37, colsum_init,
      [&](Tensor* out, int c0, int c1) {
        kernels::ColumnSumAcc(a, out, c0, c1);
      },
      [&](Tensor* out, int c0, int c1) { simd::ColumnSumAcc(a, out, c0, c1); },
      "column_sum");
  ExpectRangeKernelBitwise(
      23, full_init,
      [&](Tensor* out, int r0, int r1) {
        kernels::RowBroadcastAcc(row, out, r0, r1);
      },
      [&](Tensor* out, int r0, int r1) {
        simd::RowBroadcastAcc(row, out, r0, r1);
      },
      "row_broadcast");
}

TEST(SimdTest, DotBitwise) {
  // Dot's 8 fused lanes, their fold and the serial tail must match the
  // oracle at every length around the lane count, on random values and
  // on ±0, NaN, ±inf and denormals.
  for (int n : {0, 1, 7, 8, 9, 15, 16, 17, 64, 851}) {
    for (bool special : {false, true}) {
      const Tensor x =
          special ? SpecialTensor(1, n, 131) : RandomTensor(1, n, 131);
      const Tensor y =
          special ? SpecialTensor(1, n, 137) : RandomTensor(1, n, 137);
      Tensor want(1, 1, kernels::Dot(x, y));
      Tensor got(1, 1, simd::Dot(x, y));
      EXPECT_TRUE(BitwiseEqual(want, got))
          << "dot n=" << n << (special ? " specials" : "") << ": "
          << want[0] << " vs " << got[0];
    }
  }
}

// --- the BatchNorm1d node ----------------------------------------------

/// Row r of t as a [1, cols] tensor.
Tensor RowOf(const Tensor& t, int r) {
  Tensor row = Tensor::Unfilled(1, t.cols());
  std::memcpy(row.data(), t.row(r),
              sizeof(float) * static_cast<size_t>(t.cols()));
  return row;
}

TEST(SimdTest, BatchNormKernelsBitwise) {
  // The node's four kernels against their oracles over every range
  // partition, with ReLU on and off, on random values and on ±0, NaN,
  // ±inf and denormals in x, the upstream gradient, the output (ReLU's
  // mask), the accumulators and every per-column constant, σ included.
  using GradSums = void (*)(const Tensor&, const Tensor&, const Tensor&,
                            const kernels::MatMulTail&, Tensor*, Tensor*,
                            Tensor*, int, int);
  using GradX = void (*)(const Tensor&, const Tensor&, const Tensor&,
                         const kernels::MatMulTail&, const float*, bool,
                         Tensor*, Tensor*, int, int);
  struct Shape {
    int rows, cols;
  };
  for (const Shape& s : {Shape{1, 1}, Shape{7, 13}, Shape{4, 16},
                         Shape{9, 8}, Shape{23, 37}}) {
    for (bool special : {false, true}) {
      const auto make = [&](int rows, uint64_t seed) {
        return special ? SpecialTensor(rows, s.cols, seed)
                       : RandomTensor(rows, s.cols, seed);
      };
      const Tensor x = make(s.rows, 301);
      const Tensor g = make(s.rows, 307);
      // The output ReLU'd a third of its elements to +0, away from the
      // zeros the other tensors share, so a mask that misreads 0 shows.
      Tensor y = make(s.rows, 311);
      for (int i = 1; i < y.size(); i += 3) y[i] = 0.f;
      const Tensor dx_init = make(s.rows + 1, 313);
      // Random sums, and sums at −0, where the sign of a +0 or −0 term
      // survives.
      const Tensor sums_inits[] = {make(3, 317), Tensor(3, s.cols, -0.f)};
      const Tensor neg_mean = make(1, 331);
      const Tensor std_dev =
          special ? SpecialRow(s.cols, 337) : test::PositiveRow(s.cols, 337);
      const Tensor gamma = make(1, 347);
      const Tensor beta = make(1, 349);
      const Tensor dsq = make(1, 353);
      for (bool relu : {false, true}) {
        kernels::MatMulTail tail;
        tail.neg_mean = neg_mean.data();
        tail.std_dev = std_dev.data();
        tail.gamma = gamma.data();
        tail.beta = beta.data();
        tail.relu = relu;
        const std::string what = std::to_string(s.rows) + "x" +
                                 std::to_string(s.cols) +
                                 (special ? " specials" : "") +
                                 (relu ? " relu" : "");
        ExpectRangeKernelBitwise(
            s.rows, dx_init,
            [&](Tensor* out, int r0, int r1) {
              kernels::ApplyTailRows(tail, x, out, r0, r1);
            },
            [&](Tensor* out, int r0, int r1) {
              simd::ApplyTailRows(tail, x, out, r0, r1);
            },
            "batch_norm " + what);
        // dγ, dβ and Σ dn·x̂ are the three rows of one tensor.
        const auto grad_sums = [&](GradSums body) {
          return [&, body](Tensor* out, int c0, int c1) {
            Tensor rows[3] = {RowOf(*out, 0), RowOf(*out, 1), RowOf(*out, 2)};
            body(g, y, x, tail, &rows[0], &rows[1], &rows[2], c0, c1);
            for (int r = 0; r < 3; ++r) {
              kernels::CopyRowsTo(rows[r], out, r, 0, 1);
            }
          };
        };
        for (const Tensor& sums_init : sums_inits) {
          ExpectRangeKernelBitwise(
              s.cols, sums_init,
              [&](Tensor* out, int c0, int c1) {
                kernels::CenteredSquareSumAcc(x, neg_mean.data(), out, c0,
                                              c1);
              },
              [&](Tensor* out, int c0, int c1) {
                simd::CenteredSquareSumAcc(x, neg_mean.data(), out, c0, c1);
              },
              "centered_square_sum " + what);
          ExpectRangeKernelBitwise(s.cols, sums_init,
                                   grad_sums(kernels::BatchNormGradSumsAcc),
                                   grad_sums(simd::BatchNormGradSumsAcc),
                                   "batch_norm_grad_sums " + what);
        }
        // dx is the first s.rows rows, its column sum the last one.
        for (bool train : {false, true}) {
          for (bool accumulate : {false, true}) {
            const auto grad_x = [&](GradX body) {
              return [&, body](Tensor* out, int c0, int c1) {
                Tensor dx = Tensor::Unfilled(s.rows, s.cols);
                std::memcpy(dx.data(), out->data(),
                            sizeof(float) * static_cast<size_t>(dx.size()));
                Tensor sum = RowOf(*out, s.rows);
                body(g, y, x, tail, train ? dsq.data() : nullptr, accumulate,
                     &dx, train ? &sum : nullptr, c0, c1);
                kernels::CopyRowsTo(dx, out, 0, 0, s.rows);
                kernels::CopyRowsTo(sum, out, s.rows, 0, 1);
              };
            };
            ExpectRangeKernelBitwise(
                s.cols, dx_init, grad_x(kernels::BatchNormGradX),
                grad_x(simd::BatchNormGradX),
                "batch_norm_grad_x " + what + (train ? " train" : " eval") +
                    (accumulate ? " acc" : ""));
          }
        }
      }
    }
  }
}

// --- gather / scatter family -------------------------------------------

TEST(SimdTest, GatherScatterFamilyBitwise) {
  const int num_nodes = 19;
  const int num_edges = 67;
  const int cols = 21;  // odd: every gathered row is unaligned
  const Tensor h = RandomTensor(num_nodes, cols, 131);
  Rng rng(137);
  std::vector<int> src(num_edges), dst(num_edges);
  for (int e = 0; e < num_edges; ++e) {
    // Nodes 0 and 7 never receive an edge: empty segments.
    src[static_cast<size_t>(e)] = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
    int d = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
    if (d == 0 || d == 7) d = 3;
    dst[static_cast<size_t>(e)] = d;
  }
  const MessagePlan plan = MessagePlan::Build(src, dst, num_nodes);
  const Tensor out_init = RandomTensor(num_nodes, cols, 139);

  // GatherRowsAcc: index by destination row.
  std::vector<int> index(static_cast<size_t>(num_nodes));
  for (int r = 0; r < num_nodes; ++r) {
    index[static_cast<size_t>(r)] = (r * 5 + 2) % num_nodes;
  }
  ExpectRangeKernelBitwise(
      num_nodes, out_init,
      [&](Tensor* out, int r0, int r1) {
        kernels::GatherRowsAcc(h, index, out, r0, r1);
      },
      [&](Tensor* out, int r0, int r1) {
        simd::GatherRowsAcc(h, index, out, r0, r1);
      },
      "gather_rows_acc");

  // Planned scatter-add over edge rows.
  const Tensor edge_vals = RandomTensor(num_edges, cols, 149);
  ExpectRangeKernelBitwise(
      num_nodes, out_init,
      [&](Tensor* out, int s0, int s1) {
        kernels::ScatterAddRowsPlanned(edge_vals, plan.by_dst.perm,
                                       plan.by_dst.offsets, out, s0, s1);
      },
      [&](Tensor* out, int s0, int s1) {
        simd::ScatterAddRowsPlanned(edge_vals, plan.by_dst.perm,
                                    plan.by_dst.offsets, out, s0, s1);
      },
      "scatter_add_planned");

  // Fused gather→scatter (and its weighted twin).
  ExpectRangeKernelBitwise(
      num_nodes, out_init,
      [&](Tensor* out, int s0, int s1) {
        kernels::GatherScatterAcc(h, plan.src_by_dst, plan.by_dst.offsets, out,
                                  s0, s1);
      },
      [&](Tensor* out, int s0, int s1) {
        simd::GatherScatterAcc(h, plan.src_by_dst, plan.by_dst.offsets, out,
                               s0, s1);
      },
      "gather_scatter");
  const Tensor w = RandomTensor(num_edges, 1, 151);
  ExpectRangeKernelBitwise(
      num_nodes, out_init,
      [&](Tensor* out, int s0, int s1) {
        kernels::GatherScatterWeightedAcc(h, w, plan.by_dst.perm,
                                          plan.src_by_dst, plan.by_dst.offsets,
                                          out, s0, s1);
      },
      [&](Tensor* out, int s0, int s1) {
        simd::GatherScatterWeightedAcc(h, w, plan.by_dst.perm, plan.src_by_dst,
                                       plan.by_dst.offsets, out, s0, s1);
      },
      "gather_scatter_weighted");
}

// --- RFF feature map ----------------------------------------------------

TEST(SimdTest, RffMapBitwise) {
  const int rows = 11;
  const int source_cols = 5;
  const int features = 23;  // tail after two vector widths
  const Tensor z = SpecialTensor(rows, source_cols, 157);
  Rng rng(163);
  std::vector<int> source_dim(static_cast<size_t>(features));
  std::vector<float> omega(static_cast<size_t>(features));
  std::vector<float> phase(static_cast<size_t>(features));
  for (int j = 0; j < features; ++j) {
    source_dim[static_cast<size_t>(j)] =
        static_cast<int>(rng.UniformInt(0, source_cols - 1));
    omega[static_cast<size_t>(j)] = static_cast<float>(rng.Normal());
    phase[static_cast<size_t>(j)] = static_cast<float>(rng.Normal());
  }
  const float scale = static_cast<float>(std::sqrt(2.0));
  Tensor out_init(rows, features);
  for (bool linear_only : {false, true}) {
    ExpectRangeKernelBitwise(
        rows, out_init,
        [&](Tensor* out, int r0, int r1) {
          kernels::RffMap(z, source_dim, omega, phase, linear_only, scale, out,
                          r0, r1);
        },
        [&](Tensor* out, int r0, int r1) {
          simd::RffMap(z, source_dim, omega, phase, linear_only, scale, out,
                       r0, r1);
        },
        linear_only ? "rff_map linear" : "rff_map cos");
  }
}

// --- one-pass matmul tail -----------------------------------------------

/// The inputs of the one-pass tail tests, handed to a check. a, the bias
/// and γ carry NaN, ±inf, ±0 and denormals (a also exact zeros), so the
/// comparison is BitwiseEqual's: which payload survives NaN · NaN is the
/// compiler's operand order, in the composite kernels as in the fused
/// one. A NaN or inf in a turns its whole output row into NaN/inf, so
/// only every fifth row of a gets one; the bias and γ get them in every
/// sixth column. Outputs start as a NaN whose payload no input carries,
/// so an element the kernel never writes shows up (LeftUnwritten).
/// K = 300 crosses the SIMD body's 256-row contraction block.
struct MatMulTailCase {
  const Tensor& a;
  const Tensor& b;
  const kernels::MatMulTail& tail;
  const test::TailRows& rows;
  const Tensor& out_init;
  std::string what;
};

constexpr std::uint32_t kSentinelBits = 0x7fc0deadu;

bool LeftUnwritten(const Tensor& t) {
  for (int i = 0; i < t.size(); ++i) {
    if (std::memcmp(t.data() + i, &kSentinelBits, sizeof(float)) == 0) {
      return true;
    }
  }
  return false;
}

void ForEachMatMulTailCase(
    const std::function<void(const MatMulTailCase&)>& check) {
  const auto lace = [](Tensor t, int first, int stride) {
    for (int i = first, s = 0; i < t.size(); i += stride, ++s) {
      t[i] = kSpecials[s % 8];
    }
    return t;
  };
  float sentinel = 0.f;
  std::memcpy(&sentinel, &kSentinelBits, sizeof(sentinel));
  const int m = 37;
  for (int k : {64, 300}) {
    const Tensor a = lace(RandomTensor(m, k, 251 + static_cast<uint64_t>(k)),
                          2 * k + 3, 5 * k + 1);
    for (int n : {1, 7, 8, 16, 48, 63, 64, 65, 130, 144}) {
      const Tensor b = RandomTensor(k, n, 257 + static_cast<uint64_t>(n));
      test::TailRows rows;
      rows.bias = lace(RandomTensor(1, n, 263), 1, 6);
      rows.neg_mean = RandomTensor(1, n, 269);
      rows.std_dev = test::PositiveRow(n, 271);
      rows.gamma = lace(RandomTensor(1, n, 277), 4, 6);
      rows.beta = RandomTensor(1, n, 281);
      const std::vector<kernels::MatMulTail> tails = test::ModelTails(rows);
      const Tensor out_init(m, n, sentinel);
      for (size_t t = 0; t < tails.size(); ++t) {
        check({a, b, tails[t], rows, out_init,
               "matmul tail " + std::to_string(t) + " " + std::to_string(m) +
                   "x" + std::to_string(k) + "x" + std::to_string(n)});
      }
    }
  }
}

/// A body against its scalar oracle over every range partition.
void CheckMatMulWithTail(const MatMulBody& body) {
  ForEachMatMulTailCase([&](const MatMulTailCase& c) {
    ExpectRangeKernelBitwise(
        c.a.rows(), c.out_init,
        [&](Tensor* out, int r0, int r1) {
          kernels::MatMulWithTail(c.a, c.b, c.tail, out, r0, r1);
        },
        [&](Tensor* out, int r0, int r1) {
          body.with_tail(c.a, c.b, c.tail, out, r0, r1);
        },
        std::string(body.name) + " " + c.what);
  });
}

TEST(SimdTest, MatMulWithTailBitwise) {
  // The SIMD body must match its scalar oracle over every range
  // partition, and the Backend entry point must match the composite
  // chain it replaces, at every thread count with SIMD on and off.
  CheckMatMulWithTail(kVectorBody);
  ForEachMatMulTailCase([](const MatMulTailCase& c) {
    for (bool enabled : {false, true}) {
      simd::ScopedSimdEnabled toggle(enabled);
      Tensor composite;
      {
        ScopedBackendThreads serial(1);
        composite = test::CompositeTail(c.a, c.b, c.tail, c.rows);
      }
      for (int threads : kThreadCounts) {
        ScopedBackendThreads scoped(threads);
        Tensor fused = c.out_init;
        GetBackend().MatMulWithTail(c.a, c.b, c.tail, &fused);
        EXPECT_FALSE(LeftUnwritten(fused)) << c.what << " left an element";
        EXPECT_TRUE(BitwiseEqual(composite, fused))
            << c.what << " diverged from the composite chain at " << threads
            << " threads, simd " << (enabled ? "on" : "off");
      }
    }
  });
}

TEST_F(SimdAvx512Test, MatMulWithTailBitwise) {
  CheckMatMulWithTail(kAvx512Body);
}

// --- Backend dispatch ---------------------------------------------------

TEST(SimdTest, BackendDispatchBitwiseAcrossThreadsAndToggle) {
  const Tensor a = RandomTensor(37, 29, 167);
  const Tensor b = RandomTensor(29, 43, 173);
  const Tensor bt = RandomTensor(43, 29, 179);
  const Tensor c = RandomTensor(29, 37, 181);
  const auto run = [&]() {
    Tensor out = Tensor::Unfilled(37, 43);
    GetBackend().MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
    GetBackend().MatMulTransBAcc(a, bt, &out);
    Tensor ta(37, 43);
    GetBackend().MatMulTransAAcc(c, b, &ta);
    GetBackend().MatMulTransAAcc(c, b, &ta);
    Tensor combined(37 + 37 + 1, 43);
    kernels::CopyRowsTo(out, &combined, 0, 0, out.rows());
    kernels::CopyRowsTo(ta, &combined, 37, 0, ta.rows());
    combined.at(74, 0) = GetBackend().Dot(a, a);
    combined.at(74, 1) = GetBackend().Dot(c, c);
    return combined;
  };
  Tensor scalar_serial;
  {
    ScopedBackendThreads threads(1);
    simd::ScopedSimdEnabled off(false);
    scalar_serial = run();
  }
  for (int threads : kThreadCounts) {
    for (bool enabled : {false, true}) {
      ScopedBackendThreads scoped(threads);
      simd::ScopedSimdEnabled toggle(enabled);
      const Tensor got = run();
      EXPECT_TRUE(BitwiseEqual(scalar_serial, got))
          << "backend dispatch diverged at " << threads << " threads, simd "
          << (enabled ? "on" : "off");
    }
  }
}

TEST(SimdTest, BackendElementwiseAndBroadcastDispatchBitwise) {
  // 263×129 (odd width) is past the backend's parallel cutoff, so the
  // 2- and 8-thread runs really split every range.
  const int rows = 263;
  const int cols = 129;
  const Tensor x = SpecialTensor(rows, cols, 229);
  const Tensor g = RandomTensor(rows, cols, 233);
  const Tensor col = test::Transposed(SpecialRow(rows, 241));
  const auto run = [&]() {
    const Backend& be = GetBackend();
    Tensor relu(rows, cols);
    be.Relu(x, &relu);
    Tensor dx = g;
    be.ReluBackwardAcc(g, x, &dx);
    be.SquareBackwardAcc(g, x, &dx);
    Tensor mul_col(rows, cols);
    be.MulColVec(x, col, &mul_col);
    be.MulColVecAcc(g, col, &dx);
    Tensor combined(3 * rows, cols);
    int offset = 0;
    for (const Tensor* t : {&relu, &dx, &mul_col}) {
      kernels::CopyRowsTo(*t, &combined, offset, 0, rows);
      offset += rows;
    }
    return combined;
  };
  Tensor scalar_serial;
  {
    ScopedBackendThreads threads(1);
    simd::ScopedSimdEnabled off(false);
    scalar_serial = run();
  }
  for (int threads : kThreadCounts) {
    for (bool enabled : {false, true}) {
      ScopedBackendThreads scoped(threads);
      simd::ScopedSimdEnabled toggle(enabled);
      EXPECT_TRUE(BitwiseEqual(scalar_serial, run()))
          << "element-wise/broadcast dispatch diverged at " << threads
          << " threads, simd " << (enabled ? "on" : "off");
    }
  }
}

// The dropout mask's vector body against its oracle at thresholds on
// both sides of 2⁶³, at the ends of the range and one off a tempered
// word, where a plain signed compare or an off-by-one would flip a lane.
TEST(SimdTest, DropoutMaskBitwiseAtEveryThreshold) {
  std::mt19937_64 gen(11);
  std::vector<uint64_t> words(1000);
  for (uint64_t& w : words) w = gen();
  const uint64_t kTop = uint64_t{1} << 63;
  words[5] = 0;
  words[6] = ~uint64_t{0};
  words[7] = kTop;
  words[8] = kTop - 1;
  std::vector<uint64_t> thresholds = {0, 1, kTop - 1, kTop, kTop + 1,
                                      ~uint64_t{0},
                                      Rng::BernoulliThreshold(0.5)};
  for (const size_t j : {3, 5, 6, 7, 500, 999}) {
    const uint64_t tempered = Mt19937_64::Temper(words[j]);
    for (const uint64_t delta : {~uint64_t{0}, uint64_t{0}, uint64_t{1}}) {
      thresholds.push_back(tempered + delta);
    }
  }
  const Tensor unwritten(1, 1000, std::numeric_limits<float>::quiet_NaN());
  for (const uint64_t threshold : thresholds) {
    for (const int n : {1, 7, 8, 9, 15, 16, 17, 1000}) {
      ExpectRangeKernelBitwise(
          n, unwritten,
          [&](Tensor* o, int i0, int i1) {
            kernels::DropoutMask(words.data() + i0, threshold, 2.5f, o, i0,
                                 i1);
          },
          [&](Tensor* o, int i0, int i1) {
            simd::DropoutMask(words.data() + i0, threshold, 2.5f, o, i0, i1);
          },
          "dropout_mask threshold " + std::to_string(threshold) + " n " +
              std::to_string(n));
    }
  }
}

// Backend::DropoutMask against its definition: element i is 0 where the
// i-th std::bernoulli_distribution(p) draw on a std::mt19937_64 twin is
// true. Masks cross state blocks from every kind of start, and the
// stream must end where the per-element draws leave the twin.
TEST(DropoutMaskTest, MatchesStdBernoulliDrawsOnATwinEngine) {
  const double ps[] = {std::ldexp(1.0, -60), 1e-4, 0.1, 0.3, 1.0 / 3.0,
                       0.5, 0.9, std::nextafter(1.f, 0.f)};
  const int ns[] = {1, 7, 311, 312, 313, 1000, 65539};
  // Words drawn before the mask: none (a fresh engine twists first),
  // 100 (mid-block) and 311 (one word left); -1 loads a state whose
  // index is 0, the first word of an untouched block.
  const int leads[] = {0, 100, 311, -1};
  for (const bool simd_on : {true, false}) {
    simd::ScopedSimdEnabled toggle(simd_on);
    for (const double p : ps) {
      const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
      for (const int n : ns) {
        for (const int lead : leads) {
          Rng rng(17);
          std::mt19937_64 twin(17);
          if (lead < 0) {
            twin.discard(312);
            std::string text = test::StdEngineText(twin);
            text.replace(text.rfind(' ') + 1, std::string::npos, "0");
            ASSERT_TRUE(rng.LoadState(text));
            std::istringstream in(text);
            in >> twin;
            ASSERT_FALSE(in.fail());
          }
          for (int i = 0; i < lead; ++i) {
            rng.engine()();
            twin();
          }
          Tensor mask = Tensor::Unfilled(1, n);
          GetBackend().DropoutMask(p, keep_scale, &rng, &mask);
          std::vector<float> want(static_cast<size_t>(n));
          std::bernoulli_distribution dist(p);
          for (float& v : want) v = dist(twin) ? 0.f : keep_scale;
          ASSERT_EQ(std::memcmp(mask.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "p " << p << " n " << n << " lead " << lead << " simd "
              << simd_on;
          ASSERT_TRUE(rng.SaveState() == test::StdEngineText(twin))
              << "p " << p << " n " << n << " lead " << lead;
        }
      }
    }
  }
}

}  // namespace
}  // namespace oodgnn
