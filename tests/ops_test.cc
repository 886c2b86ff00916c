#include "src/tensor/ops.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

Tensor RandomTensor(int rows, int cols, uint64_t seed, float lo = -1.f,
                    float hi = 1.f) {
  Rng rng(seed);
  return Tensor::RandomUniform(rows, cols, &rng, lo, hi);
}

// ---------------------------------------------------------------------------
// Forward-value tests.
// ---------------------------------------------------------------------------

TEST(OpsForwardTest, MatMulMatchesManual) {
  Variable a = Variable::Constant(Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable b =
      Variable::Constant(Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12}));
  Tensor out = MatMul(a, b).value();
  EXPECT_FLOAT_EQ(out.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154.f);
}

TEST(OpsForwardTest, AddSubMul) {
  Variable a = Variable::Constant(Tensor::FromData(1, 3, {1, 2, 3}));
  Variable b = Variable::Constant(Tensor::FromData(1, 3, {4, 5, 6}));
  EXPECT_FLOAT_EQ(Add(a, b).value()[2], 9.f);
  EXPECT_FLOAT_EQ(Sub(a, b).value()[0], -3.f);
  EXPECT_FLOAT_EQ(Mul(a, b).value()[1], 10.f);
}

TEST(OpsForwardTest, RowAndColBroadcasts) {
  Variable a = Variable::Constant(Tensor::FromData(2, 2, {1, 2, 3, 4}));
  Variable row = Variable::Constant(Tensor::RowVector({10, 20}));
  Variable col = Variable::Constant(Tensor::ColVector({2, 3}));
  EXPECT_FLOAT_EQ(AddRowVec(a, row).value().at(1, 1), 24.f);
  EXPECT_FLOAT_EQ(MulRowVec(a, row).value().at(0, 1), 40.f);
  EXPECT_FLOAT_EQ(DivRowVec(a, row).value().at(1, 0), 0.3f);
  EXPECT_FLOAT_EQ(MulColVec(a, col).value().at(1, 0), 9.f);
}

TEST(OpsForwardTest, Reductions) {
  Variable a = Variable::Constant(Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_FLOAT_EQ(Sum(a).value()[0], 21.f);
  EXPECT_FLOAT_EQ(MeanAll(a).value()[0], 3.5f);
  Tensor rows = SumRows(a).value();
  EXPECT_FLOAT_EQ(rows.at(0, 0), 5.f);
  EXPECT_FLOAT_EQ(rows.at(0, 2), 9.f);
  Tensor cols = SumCols(a).value();
  EXPECT_FLOAT_EQ(cols.at(0, 0), 6.f);
  EXPECT_FLOAT_EQ(cols.at(1, 0), 15.f);
  Tensor means = MeanRows(a).value();
  EXPECT_FLOAT_EQ(means.at(0, 1), 3.5f);
}

TEST(OpsForwardTest, Nonlinearities) {
  Variable a = Variable::Constant(Tensor::FromData(1, 4, {-2, -0.5, 0.5, 2}));
  Tensor relu = Relu(a).value();
  EXPECT_FLOAT_EQ(relu[0], 0.f);
  EXPECT_FLOAT_EQ(relu[3], 2.f);
  Tensor sig = Sigmoid(a).value();
  EXPECT_NEAR(sig[3], 0.8808f, 1e-4);
  Tensor tanh_v = TanhOp(a).value();
  EXPECT_NEAR(tanh_v[0], -0.9640f, 1e-4);
  EXPECT_NEAR(CosOp(a).value()[2], std::cos(0.5f), 1e-6);
  EXPECT_NEAR(AbsOp(a).value()[1], 0.5f, 1e-6);
  EXPECT_NEAR(Square(a).value()[0], 4.f, 1e-6);
}

TEST(OpsForwardTest, ReluSpecialValuesBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denormal = 1e-41f;
  // Input, ReLU(input) and ReLU'(input), compared bit for bit: −0, NaN
  // and −inf map to +0 (a max-based ReLU would return −0 or NaN), and
  // the gradient is +0 at ±0 and NaN.
  const std::vector<float> in = {-0.f, nan, -inf, inf, denormal,
                                 -denormal, 0.f, 2.f, -2.f};
  const std::vector<float> want = {0.f, 0.f, 0.f, inf, denormal,
                                   0.f, 0.f, 2.f, 0.f};
  const std::vector<float> want_grad = {0.f, 0.f, 0.f, 1.f, 1.f,
                                        0.f, 0.f, 1.f, 0.f};
  // Three copies (27 elements) reach both the vector lanes and the
  // scalar tail; the scalar kernels run too, with SIMD off.
  const int n = 3 * static_cast<int>(in.size());
  std::vector<float> values;
  for (int i = 0; i < n; ++i) values.push_back(in[i % in.size()]);
  for (bool vector : {false, true}) {
    simd::ScopedSimdEnabled simd_mode(vector);
    Variable x = Variable::Param(Tensor::FromData(1, n, values));
    Variable y = Relu(x);
    y.Backward(Tensor(1, n, 1.f));
    for (int i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i) % in.size();
      const float got = y.value()[i];
      const float got_grad = x.grad()[i];
      EXPECT_EQ(std::memcmp(&got, &want[k], sizeof(float)), 0)
          << "relu(" << in[k] << ") = " << got << " at " << i << ", simd "
          << vector;
      EXPECT_EQ(std::memcmp(&got_grad, &want_grad[k], sizeof(float)), 0)
          << "relu'(" << in[k] << ") = " << got_grad << " at " << i
          << ", simd " << vector;
    }
  }
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Variable a = Variable::Constant(RandomTensor(4, 7, 99, -3, 3));
  Tensor sm = SoftmaxRows(a).value();
  for (int r = 0; r < sm.rows(); ++r) {
    float total = 0.f;
    for (int c = 0; c < sm.cols(); ++c) {
      total += sm.at(r, c);
      EXPECT_GT(sm.at(r, c), 0.f);
    }
    EXPECT_NEAR(total, 1.f, 1e-5);
  }
}

TEST(OpsForwardTest, SoftmaxIsShiftInvariant) {
  Variable a = Variable::Constant(Tensor::FromData(1, 3, {1, 2, 3}));
  Variable b = Variable::Constant(Tensor::FromData(1, 3, {1001, 1002, 1003}));
  EXPECT_TRUE(AllClose(SoftmaxRows(a).value(), SoftmaxRows(b).value(), 1e-5f));
}

TEST(OpsForwardTest, GatherScatter) {
  Variable a = Variable::Constant(Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6}));
  Tensor gathered = RowGather(a, {2, 0, 2}).value();
  EXPECT_FLOAT_EQ(gathered.at(0, 0), 5.f);
  EXPECT_FLOAT_EQ(gathered.at(1, 1), 2.f);
  EXPECT_FLOAT_EQ(gathered.at(2, 1), 6.f);

  Tensor scattered = ScatterAddRows(a, {1, 1, 0}, 2).value();
  EXPECT_FLOAT_EQ(scattered.at(1, 0), 4.f);   // rows 0+1
  EXPECT_FLOAT_EQ(scattered.at(0, 1), 6.f);   // row 2
}

TEST(OpsForwardTest, SegmentOps) {
  Variable a =
      Variable::Constant(Tensor::FromData(4, 2, {1, 2, 3, 4, 5, 6, 7, 8}));
  std::vector<int> seg = {0, 0, 1, 1};
  Tensor sum = SegmentSum(a, seg, 2).value();
  EXPECT_FLOAT_EQ(sum.at(0, 0), 4.f);
  EXPECT_FLOAT_EQ(sum.at(1, 1), 14.f);
  Tensor mean = SegmentMean(a, seg, 2).value();
  EXPECT_FLOAT_EQ(mean.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(mean.at(1, 1), 7.f);
  Tensor max = SegmentMax(a, seg, 2).value();
  EXPECT_FLOAT_EQ(max.at(0, 1), 4.f);
  EXPECT_FLOAT_EQ(max.at(1, 0), 7.f);
  Tensor min = SegmentMin(a, seg, 2).value();
  EXPECT_FLOAT_EQ(min.at(0, 1), 2.f);
  EXPECT_FLOAT_EQ(min.at(1, 0), 5.f);
}

TEST(OpsForwardTest, EmptySegmentsAreZero) {
  Variable a = Variable::Constant(Tensor::FromData(2, 1, {3, 4}));
  std::vector<int> seg = {0, 0};
  Tensor max = SegmentMax(a, seg, 3).value();
  EXPECT_FLOAT_EQ(max.at(1, 0), 0.f);
  EXPECT_FLOAT_EQ(max.at(2, 0), 0.f);
  Tensor mean = SegmentMean(a, seg, 3).value();
  EXPECT_FLOAT_EQ(mean.at(2, 0), 0.f);
}

TEST(OpsForwardTest, ConcatAndSlice) {
  Variable a = Variable::Constant(Tensor::FromData(2, 1, {1, 2}));
  Variable b = Variable::Constant(Tensor::FromData(2, 2, {3, 4, 5, 6}));
  Tensor cols = ConcatCols({a, b}).value();
  EXPECT_EQ(cols.cols(), 3);
  EXPECT_FLOAT_EQ(cols.at(1, 2), 6.f);

  Variable c = Variable::Constant(Tensor::FromData(1, 1, {9}));
  Tensor rows = ConcatRows({a, c}).value();
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_FLOAT_EQ(rows.at(2, 0), 9.f);

  Tensor sliced = SliceRows(b, 1, 1).value();
  EXPECT_EQ(sliced.rows(), 1);
  EXPECT_FLOAT_EQ(sliced.at(0, 1), 6.f);
}

TEST(OpsForwardTest, ClampValues) {
  Variable a = Variable::Constant(Tensor::FromData(1, 3, {-5, 0.5, 5}));
  Tensor out = Clamp(a, 0.f, 1.f).value();
  EXPECT_FLOAT_EQ(out[0], 0.f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[2], 1.f);
}

TEST(OpsForwardTest, DropoutEvalIsIdentity) {
  Rng rng(5);
  Variable a = Variable::Constant(RandomTensor(4, 4, 1));
  Variable out = Dropout(a, 0.5f, &rng, /*training=*/false);
  EXPECT_TRUE(AllClose(out.value(), a.value()));
}

TEST(OpsForwardTest, DropoutTrainingPreservesMeanApproximately) {
  Rng rng(6);
  Variable a = Variable::Constant(Tensor(200, 200, 1.f));
  Variable out = Dropout(a, 0.3f, &rng, /*training=*/true);
  EXPECT_NEAR(out.value().Sum() / out.value().size(), 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Backward: basic chain + accumulation semantics.
// ---------------------------------------------------------------------------

TEST(AutogradTest, SimpleChainGradient) {
  Variable x = Variable::Param(Tensor::FromData(1, 1, {3.f}));
  Variable y = Square(x);  // y = x², dy/dx = 6.
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Variable x = Variable::Param(Tensor::FromData(1, 1, {2.f}));
  Square(x).Backward();
  Square(x).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.f);  // 4 + 4.
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.f);
}

TEST(AutogradTest, DiamondGraphSumsBothPaths) {
  Variable x = Variable::Param(Tensor::FromData(1, 1, {3.f}));
  Variable a = Scale(x, 2.f);
  Variable b = Scale(x, 5.f);
  Variable y = Add(a, b);  // y = 7x.
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.f);
}

TEST(AutogradTest, ReusedNodeGradIsCorrect) {
  Variable x = Variable::Param(Tensor::FromData(1, 1, {2.f}));
  Variable y = Mul(x, x);  // y = x², both operands same node.
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.f);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Variable x = Variable::Param(Tensor::FromData(1, 1, {3.f}));
  Variable y = Sum(Mul(Square(x).Detach(), x));  // treated as 9·x.
  x.ZeroGrad();
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 9.f);
}

TEST(AutogradTest, ConstantsReceiveNoBackward) {
  Variable c = Variable::Constant(Tensor::FromData(1, 1, {3.f}));
  Variable y = Square(c);
  EXPECT_FALSE(y.requires_grad());
  y.Backward();  // Must not crash.
}

// ---------------------------------------------------------------------------
// Parameterized finite-difference gradient checks over the op grid.
// ---------------------------------------------------------------------------

struct GradCase {
  std::string name;
  // Builds leaves + a scalar function of them.
  std::function<std::pair<std::vector<Variable>,
                          std::function<Variable()>>()>
      make;
};

GradCase Case(std::string name,
              std::function<std::pair<std::vector<Variable>,
                                      std::function<Variable()>>()>
                  make) {
  return GradCase{std::move(name), std::move(make)};
}

// gtest names each instance "<name> # GetParam() = <printed param>".
// The default printer dumps the struct's raw bytes, which include the
// string's heap pointer and so change from build to build; print the
// case name instead so the registered test names are stable.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class OpGradCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradCheck, AnalyticMatchesNumeric) {
  auto [leaves, fn] = GetParam().make();
  GradCheckResult result = CheckGradients(leaves, fn);
  EXPECT_LT(result.max_relative_error, 5e-2)
      << "worst leaf " << result.worst_leaf << " element "
      << result.worst_element;
}

std::vector<GradCase> MakeGradCases() {
  std::vector<GradCase> cases;
  cases.push_back(Case("MatMul", [] {
    Variable a = Variable::Param(RandomTensor(3, 4, 1));
    Variable b = Variable::Param(RandomTensor(4, 2, 2));
    auto fn = [a, b] { return Sum(Square(MatMul(a, b))); };
    return std::make_pair(std::vector<Variable>{a, b},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("AddSubMul", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 3));
    Variable b = Variable::Param(RandomTensor(2, 3, 4));
    auto fn = [a, b] {
      return Sum(Square(Mul(Add(a, b), Sub(a, b))));
    };
    return std::make_pair(std::vector<Variable>{a, b},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("AddRowVec", [] {
    Variable a = Variable::Param(RandomTensor(3, 2, 5));
    Variable b = Variable::Param(RandomTensor(1, 2, 6));
    auto fn = [a, b] { return Sum(Square(AddRowVec(a, b))); };
    return std::make_pair(std::vector<Variable>{a, b},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("MulRowVec", [] {
    Variable a = Variable::Param(RandomTensor(3, 2, 7));
    Variable b = Variable::Param(RandomTensor(1, 2, 8));
    auto fn = [a, b] { return Sum(Square(MulRowVec(a, b))); };
    return std::make_pair(std::vector<Variable>{a, b},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("DivRowVec", [] {
    Variable a = Variable::Param(RandomTensor(3, 2, 9));
    Variable b = Variable::Param(RandomTensor(1, 2, 10, 1.f, 2.f));
    auto fn = [a, b] { return Sum(Square(DivRowVec(a, b))); };
    return std::make_pair(std::vector<Variable>{a, b},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("MulColVec", [] {
    Variable a = Variable::Param(RandomTensor(3, 2, 11));
    Variable w = Variable::Param(RandomTensor(3, 1, 12));
    auto fn = [a, w] { return Sum(Square(MulColVec(a, w))); };
    return std::make_pair(std::vector<Variable>{a, w},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("MulByScalarVar", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 13));
    Variable s = Variable::Param(RandomTensor(1, 1, 14));
    auto fn = [a, s] { return Sum(Square(MulByScalarVar(a, s))); };
    return std::make_pair(std::vector<Variable>{a, s},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Sigmoid", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 15, -2.f, 2.f));
    auto fn = [a] { return Sum(Sigmoid(a)); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Tanh", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 16, -2.f, 2.f));
    auto fn = [a] { return Sum(TanhOp(a)); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Cos", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 17, -3.f, 3.f));
    auto fn = [a] { return Sum(CosOp(a)); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("ExpLog", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 18, 0.5f, 2.f));
    auto fn = [a] { return Sum(LogOp(ExpOp(a))); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Sqrt", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 19, 1.f, 4.f));
    auto fn = [a] { return Sum(SqrtOp(a)); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Reciprocal", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 20, 1.f, 3.f));
    auto fn = [a] { return Sum(Reciprocal(a)); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SoftmaxRows", [] {
    Variable a = Variable::Param(RandomTensor(3, 4, 21, -2.f, 2.f));
    auto fn = [a] { return Sum(Square(SoftmaxRows(a))); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("Transpose", [] {
    Variable a = Variable::Param(RandomTensor(3, 2, 22));
    auto fn = [a] { return Sum(Square(Transpose(a))); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SumRowsCols", [] {
    Variable a = Variable::Param(RandomTensor(3, 4, 23));
    auto fn = [a] {
      return Add(Sum(Square(SumRows(a))), Sum(Square(SumCols(a))));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("RowGather", [] {
    Variable a = Variable::Param(RandomTensor(4, 3, 24));
    auto fn = [a] {
      return Sum(Square(RowGather(a, {0, 2, 2, 3})));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("ScatterAddRows", [] {
    Variable a = Variable::Param(RandomTensor(5, 2, 25));
    auto fn = [a] {
      return Sum(Square(ScatterAddRows(a, {0, 1, 1, 2, 0}, 3)));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SegmentMean", [] {
    Variable a = Variable::Param(RandomTensor(5, 2, 26));
    auto fn = [a] {
      return Sum(Square(SegmentMean(a, {0, 0, 1, 1, 1}, 2)));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SegmentMax", [] {
    // Well-separated values so the argmax is stable under ±eps.
    Variable a = Variable::Param(
        Tensor::FromData(4, 2, {0.1f, 0.9f, 0.8f, 0.2f, 0.3f, 0.7f, 0.95f,
                                0.05f}));
    auto fn = [a] {
      return Sum(Square(SegmentMax(a, {0, 0, 1, 1}, 2)));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SegmentMin", [] {
    Variable a = Variable::Param(
        Tensor::FromData(4, 2, {0.1f, 0.9f, 0.8f, 0.2f, 0.3f, 0.7f, 0.95f,
                                0.05f}));
    auto fn = [a] {
      return Sum(Square(SegmentMin(a, {0, 0, 1, 1}, 2)));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("ConcatColsRows", [] {
    Variable a = Variable::Param(RandomTensor(2, 2, 27));
    Variable b = Variable::Param(RandomTensor(2, 3, 28));
    Variable c = Variable::Param(RandomTensor(1, 5, 29));
    auto fn = [a, b, c] {
      return Sum(Square(ConcatRows({ConcatCols({a, b}), c})));
    };
    return std::make_pair(std::vector<Variable>{a, b, c},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SliceRows", [] {
    Variable a = Variable::Param(RandomTensor(4, 3, 30));
    auto fn = [a] { return Sum(Square(SliceRows(a, 1, 2))); };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheck, ::testing::ValuesIn(MakeGradCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace oodgnn
