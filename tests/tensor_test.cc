#include "src/tensor/tensor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "gtest/gtest.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.f);
}

TEST(TensorTest, FillConstructor) {
  Tensor t(2, 2, 3.5f);
  for (int i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 3.5f);
}

std::uint32_t Bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(TensorTest, ZeroFillsAreAllZeroBytesAndNegativeZeroKeepsItsSign) {
  {
    // Leave non-zero bytes in the arena for the next tensors to reuse.
    Tensor stale(5, 7, -3.25f);
  }
  Tensor zeros(5, 7);
  for (int i = 0; i < zeros.size(); ++i) EXPECT_EQ(Bits(zeros[i]), 0u);
  Tensor t(5, 7, 1.5f);
  t.Fill(0.f);
  for (int i = 0; i < t.size(); ++i) EXPECT_EQ(Bits(t[i]), 0u);
  // −0.f compares equal to 0.f but is not all zero bytes.
  const std::uint32_t neg_zero = Bits(-0.f);
  ASSERT_NE(neg_zero, 0u);
  Tensor n(5, 7, -0.f);
  for (int i = 0; i < n.size(); ++i) EXPECT_EQ(Bits(n[i]), neg_zero);
  t.Fill(-0.f);
  for (int i = 0; i < t.size(); ++i) EXPECT_EQ(Bits(t[i]), neg_zero);
  Tensor empty;
  empty.Fill(0.f);  // No storage to write.
  EXPECT_TRUE(empty.empty());
}

TEST(TensorTest, UnfilledHasTheShapeAndTakesWrites) {
  Tensor t = Tensor::Unfilled(3, 5);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 5);
  for (int i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  EXPECT_FLOAT_EQ(t.Sum(), 105.f);
  EXPECT_TRUE(Tensor::Unfilled(0, 4).empty());
}

TEST(TensorTest, FromDataRowMajorLayout) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.f);
  EXPECT_FLOAT_EQ(t.at(0, 2), 3.f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.f);
}

TEST(TensorTest, RowAndColVectors) {
  Tensor row = Tensor::RowVector({1, 2, 3});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 3);
  Tensor col = Tensor::ColVector({1, 2, 3});
  EXPECT_EQ(col.rows(), 3);
  EXPECT_EQ(col.cols(), 1);
}

TEST(TensorTest, Identity) {
  Tensor eye = Tensor::Identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(eye.at(r, c), r == c ? 1.f : 0.f);
    }
  }
}

TEST(TensorTest, AddAndScale) {
  Tensor a = Tensor::FromData(1, 3, {1, 2, 3});
  Tensor b = Tensor::FromData(1, 3, {10, 20, 30});
  a.Add(b);
  a.Scale(2.f);
  EXPECT_FLOAT_EQ(a[0], 22.f);
  EXPECT_FLOAT_EQ(a[2], 66.f);
}

TEST(TensorTest, SumAndMaxAbs) {
  Tensor t = Tensor::FromData(2, 2, {-5, 1, 2, 3});
  EXPECT_FLOAT_EQ(t.Sum(), 1.f);
  EXPECT_FLOAT_EQ(t.MaxAbs(), 5.f);
}

TEST(TensorTest, Transposed) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transposed();
  EXPECT_EQ(tt.rows(), 3);
  EXPECT_EQ(tt.cols(), 2);
  EXPECT_FLOAT_EQ(tt.at(2, 1), 6.f);
  EXPECT_FLOAT_EQ(tt.at(0, 1), 4.f);
}

TEST(TensorTest, ReshapedPreservesData) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped(3, 2);
  EXPECT_FLOAT_EQ(r.at(0, 1), 2.f);
  EXPECT_FLOAT_EQ(r.at(2, 0), 5.f);
}

TEST(TensorTest, RandomNormalMoments) {
  Rng rng(11);
  Tensor t = Tensor::RandomNormal(100, 100, &rng, 1.f, 0.5f);
  double mean = 0.0;
  for (int i = 0; i < t.size(); ++i) mean += t[i];
  mean /= t.size();
  EXPECT_NEAR(mean, 1.0, 0.02);
}

TEST(TensorTest, RandomUniformBounds) {
  Rng rng(12);
  Tensor t = Tensor::RandomUniform(50, 50, &rng, -2.f, 2.f);
  for (int i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -2.f);
    EXPECT_LT(t[i], 2.f);
  }
}

TEST(TensorTest, AllClose) {
  Tensor a = Tensor::FromData(1, 2, {1.f, 2.f});
  Tensor b = Tensor::FromData(1, 2, {1.f + 1e-7f, 2.f});
  Tensor c = Tensor::FromData(1, 2, {1.1f, 2.f});
  Tensor d = Tensor::FromData(2, 1, {1.f, 2.f});
  EXPECT_TRUE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, c));
  EXPECT_FALSE(AllClose(a, d));  // Shape mismatch.

  // NaN is close to nothing, itself included, at any tolerance.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor with_nan = Tensor::FromData(1, 2, {nan, 2.f});
  EXPECT_FALSE(AllClose(with_nan, a));
  EXPECT_FALSE(AllClose(a, with_nan));
  EXPECT_FALSE(AllClose(with_nan, with_nan));
  EXPECT_FALSE(AllClose(with_nan, a, 0.f));
  EXPECT_FALSE(AllClose(with_nan, a, inf));
  // Equal infinities are close, even at tol = 0; anything else is not.
  Tensor pos_inf = Tensor::FromData(1, 2, {inf, 2.f});
  Tensor neg_inf = Tensor::FromData(1, 2, {-inf, 2.f});
  EXPECT_TRUE(AllClose(pos_inf, pos_inf, 0.f));
  EXPECT_TRUE(AllClose(neg_inf, neg_inf, 0.f));
  EXPECT_FALSE(AllClose(pos_inf, neg_inf));
  EXPECT_FALSE(AllClose(pos_inf, a));
  EXPECT_FALSE(AllClose(a, neg_inf, 1e30f));
  // tol = 0 is exact equality (and −0 equals +0).
  EXPECT_TRUE(AllClose(a, a, 0.f));
  EXPECT_FALSE(AllClose(a, b, 0.f));
  EXPECT_TRUE(AllClose(Tensor::FromData(1, 1, {-0.f}),
                       Tensor::FromData(1, 1, {0.f}), 0.f));
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_FLOAT_EQ(t.MaxAbs(), 0.f);
}

TEST(TensorTest, ToStringMentionsShape) {
  Tensor t(2, 3);
  EXPECT_NE(t.ToString().find("2x3"), std::string::npos);
}

}  // namespace
}  // namespace oodgnn
