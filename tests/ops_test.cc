#include "src/tensor/ops.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/batchnorm.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

Tensor RandomTensor(int rows, int cols, uint64_t seed, float lo = -1.f,
                    float hi = 1.f) {
  Rng rng(seed);
  return Tensor::RandomUniform(rows, cols, &rng, lo, hi);
}

SegmentPlanPtr Plan(std::vector<int> items, int num_segments) {
  return std::make_shared<const SegmentPlan>(
      SegmentPlan::Build(std::move(items), num_segments));
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
  Variable row = Variable::Constant(test::RowVector({10, 20}));
  Variable col = Variable::Constant(Tensor::ColVector({2, 3}));
  EXPECT_FLOAT_EQ(AddRowVec(a, row).value().at(1, 1), 24.f);
  EXPECT_FLOAT_EQ(MulColVec(a, col).value().at(1, 0), 9.f);
}

TEST(OpsForwardTest, Reductions) {
  Variable a = Variable::Constant(Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_FLOAT_EQ(Sum(a).value()[0], 21.f);
  EXPECT_FLOAT_EQ(MeanAll(a).value()[0], 3.5f);
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

TEST(OpsForwardTest, GatherScatter) {
  Variable a = Variable::Constant(Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6}));
  Tensor gathered = RowGather(a, Plan({2, 0, 2}, 3)).value();
  EXPECT_FLOAT_EQ(gathered.at(0, 0), 5.f);
  EXPECT_FLOAT_EQ(gathered.at(1, 1), 2.f);
  EXPECT_FLOAT_EQ(gathered.at(2, 1), 6.f);

  Tensor scattered = ScatterAddRows(a, Plan({1, 1, 0}, 2)).value();
  EXPECT_FLOAT_EQ(scattered.at(1, 0), 4.f);   // rows 0+1
  EXPECT_FLOAT_EQ(scattered.at(0, 1), 6.f);   // row 2
}

TEST(OpsForwardTest, SegmentOps) {
  Variable a =
      Variable::Constant(Tensor::FromData(4, 2, {1, 2, 3, 4, 5, 6, 7, 8}));
  const SegmentPlanPtr seg = Plan({0, 0, 1, 1}, 2);
  Tensor sum = SegmentSum(a, seg).value();
  EXPECT_FLOAT_EQ(sum.at(0, 0), 4.f);
  EXPECT_FLOAT_EQ(sum.at(1, 1), 14.f);
  Tensor mean = SegmentMean(a, seg).value();
  EXPECT_FLOAT_EQ(mean.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(mean.at(1, 1), 7.f);
  Tensor max = SegmentMax(a, seg).value();
  EXPECT_FLOAT_EQ(max.at(0, 1), 4.f);
  EXPECT_FLOAT_EQ(max.at(1, 0), 7.f);
  Tensor min = SegmentMin(a, seg).value();
  EXPECT_FLOAT_EQ(min.at(0, 1), 2.f);
  EXPECT_FLOAT_EQ(min.at(1, 0), 5.f);
}

TEST(OpsForwardTest, EmptySegmentsAreZero) {
  Variable a = Variable::Constant(Tensor::FromData(2, 1, {3, 4}));
  const SegmentPlanPtr seg = Plan({0, 0}, 3);
  Tensor max = SegmentMax(a, seg).value();
  EXPECT_FLOAT_EQ(max.at(1, 0), 0.f);
  EXPECT_FLOAT_EQ(max.at(2, 0), 0.f);
  Tensor mean = SegmentMean(a, seg).value();
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
  // A value lifted out of the graph as a constant: treated as 9·x.
  Variable y = Sum(Mul(Variable::Constant(Square(x).value()), x));
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

TEST(AutogradTest, BackwardKeepsOnlyLeafGradients) {
  Variable x = Variable::Param(Tensor::FromData(1, 2, {1.f, 2.f}));
  Variable c = Variable::Constant(Tensor::FromData(1, 2, {3.f, 4.f}));
  Variable h = Mul(x, c);
  Variable y = Sum(Square(h));  // dy/dx = 2·x·c².
  y.Backward();
  EXPECT_TRUE(h.grad().empty());
  EXPECT_TRUE(y.grad().empty());
  EXPECT_TRUE(c.grad().empty());
  ASSERT_TRUE(x.grad().SameShape(x.value()));
  EXPECT_EQ(x.grad()[0], 18.f);
  EXPECT_EQ(x.grad()[1], 64.f);
}

TEST(AutogradTest, PassThroughSumsEveryConsumer) {
  // Small integers and halves keep every expected value exact.
  const Tensor w = Tensor::FromData(2, 3, {1, 2, 3, 5, 6, 8});
  const Tensor x0 = Tensor::FromData(2, 3, {1, -2, 3, 0, 4, -1});
  auto expect_grad = [](const Variable& x, const std::vector<float>& want) {
    ASSERT_EQ(x.grad().size(), static_cast<int>(want.size()));
    for (int i = 0; i < x.grad().size(); ++i) {
      EXPECT_EQ(x.grad()[i], want[static_cast<size_t>(i)]) << "at " << i;
    }
  };
  {
    // Aliased operands: Add(h, h) passes 2g to h, Sub(h, h) nets 0.
    Variable x = Variable::Param(x0);
    Variable h = Scale(x, 3.f);
    Variable y =
        Sum(Mul(Add(Add(h, h), Sub(h, h)), Variable::Constant(w)));
    y.Backward();
    y.Backward();  // Leaves accumulate: 2 · (6·w).
    expect_grad(x, {12, 24, 36, 60, 72, 96});
  }
  {
    // A column centering: h feeds both AddRowVec's matrix operand and
    // the column means (the composite's SumRows broadcasts back into
    // h), so dy/dh = w − mean_rows(w).
    Variable x = Variable::Param(x0);
    Variable h = Scale(x, 3.f);
    Variable centered = AddRowVec(h, Scale(test::MeanRows(h), -1.f));
    Variable y = Sum(Mul(centered, Variable::Constant(w)));
    y.Backward();
    y.Backward();  // Leaves accumulate: 2 · 3 · (w − mean_rows(w)).
    expect_grad(x, {-12, -12, -15, 12, 12, 15});
  }
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
  cases.push_back(Case("ExpLog", [] {
    Variable a = Variable::Param(RandomTensor(2, 3, 18, 0.5f, 2.f));
    auto fn = [a] { return Sum(ExpOp(a)); };
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
  cases.push_back(Case("BatchNormRelu", [] {
    // Train mode: x, γ and β all reach the loss through the batch
    // statistics; the random weights make every gradient non-trivial.
    auto norm = std::make_shared<BatchNorm1d>(3);
    std::vector<Variable> leaves = norm->Parameters();
    leaves[0].mutable_value() = RandomTensor(1, 3, 21, 0.5f, 2.f);
    leaves[1].mutable_value() = RandomTensor(1, 3, 22);
    Variable x = Variable::Param(RandomTensor(6, 3, 23, -2.f, 2.f));
    Variable w = Variable::Constant(RandomTensor(6, 3, 17));
    leaves.push_back(x);
    auto fn = [norm, x, w] {
      return Sum(Mul(norm->Forward(x, /*training=*/true, /*relu=*/true), w));
    };
    return std::make_pair(leaves, std::function<Variable()>(fn));
  }));
  cases.push_back(Case("RowGather", [] {
    Variable a = Variable::Param(RandomTensor(4, 3, 24));
    auto fn = [a] {
      return Sum(Square(RowGather(a, Plan({0, 2, 2, 3}, 4))));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("ScatterAddRows", [] {
    Variable a = Variable::Param(RandomTensor(5, 2, 25));
    auto fn = [a] {
      return Sum(Square(ScatterAddRows(a, Plan({0, 1, 1, 2, 0}, 3))));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SegmentMean", [] {
    Variable a = Variable::Param(RandomTensor(5, 2, 26));
    auto fn = [a] {
      return Sum(Square(SegmentMean(a, Plan({0, 0, 1, 1, 1}, 2))));
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
      return Sum(Square(SegmentMax(a, Plan({0, 0, 1, 1}, 2))));
    };
    return std::make_pair(std::vector<Variable>{a},
                          std::function<Variable()>(fn));
  }));
  cases.push_back(Case("SegmentMin", [] {
    Variable a = Variable::Param(
        Tensor::FromData(4, 2, {0.1f, 0.9f, 0.8f, 0.2f, 0.3f, 0.7f, 0.95f,
                                0.05f}));
    auto fn = [a] {
      return Sum(Square(SegmentMin(a, Plan({0, 0, 1, 1}, 2))));
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
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheck, ::testing::ValuesIn(MakeGradCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace oodgnn
