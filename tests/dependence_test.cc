#include "src/core/dependence.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/decorrelation.h"
#include "src/core/hsic.h"
#include "src/util/file.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

Tensor PlantedData(int n, uint64_t seed) {
  // Columns: x, x²−1 (dependent pair), independent noise.
  Rng rng(seed);
  Tensor z(n, 3);
  for (int r = 0; r < n; ++r) {
    const float x = static_cast<float>(rng.Normal(0.0, 1.0));
    z.at(r, 0) = x;
    z.at(r, 1) = x * x - 1.f;
    z.at(r, 2) = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return z;
}

TEST(DependenceMatrixTest, SymmetricZeroDiagonal) {
  Rng rng(1);
  RffConfig config;
  config.num_functions = 2;
  RffFeatureMap rff(3, config, &rng);
  Tensor matrix = PairwiseDependenceMatrix(PlantedData(200, 2), rff);
  ASSERT_EQ(matrix.rows(), 3);
  ASSERT_EQ(matrix.cols(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(matrix.at(i, i), 0.f);
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(matrix.at(i, j), matrix.at(j, i), 1e-6);
      EXPECT_GE(matrix.at(i, j), 0.f);
    }
  }
}

TEST(DependenceMatrixTest, UpperTriangleSumsToDependenceMeasure) {
  Rng rng(3);
  RffConfig config;
  config.num_functions = 2;
  RffFeatureMap rff(3, config, &rng);
  Tensor z = PlantedData(150, 4);
  Tensor matrix = PairwiseDependenceMatrix(z, rff);
  double triangle = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) triangle += matrix.at(i, j);
  }
  EXPECT_NEAR(triangle, test::DependenceMeasure(z, rff),
              1e-3 * std::max(1.0, triangle));
}

TEST(DependenceMatrixTest, IdentifiesThePlantedPair) {
  Rng rng(5);
  RffConfig config;
  config.num_functions = 4;
  RffFeatureMap rff(3, config, &rng);
  const Tensor matrix = PairwiseDependenceMatrix(PlantedData(800, 6), rff);
  double total = 0.0, max_pair = 0.0;
  int max_i = -1, max_j = -1;
  for (int i = 0; i < matrix.rows(); ++i) {
    for (int j = i + 1; j < matrix.cols(); ++j) {
      total += matrix.at(i, j);
      if (matrix.at(i, j) > max_pair) {
        max_pair = matrix.at(i, j);
        max_i = i;
        max_j = j;
      }
    }
  }
  EXPECT_EQ(max_i, 0);
  EXPECT_EQ(max_j, 1);
  EXPECT_GT(max_pair, 0.5 * total);
}

// The dependence diagnostics the benches report sit outside the
// training path the determinism oracle (tests/oracle_test.cc) covers,
// so they take its execution configs here: every config must
// reproduce the (1 thread, scalar, counters off) reference bitwise.
TEST(DependenceMatrixTest, EveryExecConfigMatchesReferenceBitwise) {
  Rng rng(7);
  RffConfig config;
  config.num_functions = 2;
  RffFeatureMap rff(3, config, &rng);
  const Tensor z = PlantedData(1000, 8);  // Past the parallel cutoff.
  const Tensor head = PlantedData(200, 9);
  struct Outputs {
    Tensor matrix;
    double measure;
    double hsic;
  };
  const auto run = [&](const test::ExecConfig& exec) {
    const test::ScopedExecConfig scoped(exec);
    return Outputs{PairwiseDependenceMatrix(z, rff),
                   test::DependenceMeasure(z, rff), ExactPairwiseHsic(head)};
  };
  const std::vector<test::ExecConfig> configs = test::AllExecConfigs();
  const Outputs reference = run(configs[0]);
  for (size_t c = 1; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].Describe());
    const Outputs got = run(configs[c]);
    ASSERT_TRUE(got.matrix.SameShape(reference.matrix));
    EXPECT_EQ(std::memcmp(got.matrix.data(), reference.matrix.data(),
                          sizeof(float) * reference.matrix.size()),
              0);
    EXPECT_EQ(std::memcmp(&got.measure, &reference.measure, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&got.hsic, &reference.hsic, sizeof(double)), 0);
  }
}

TEST(FileTest, WriteReadRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/file_test.txt";
  const std::string payload("line1\nline2\0binary", 18);
  ASSERT_TRUE(WriteStringToFile(path, payload));
  EXPECT_TRUE(FileExists(path));
  std::string read_back;
  ASSERT_TRUE(ReadFileToString(path, &read_back));
  EXPECT_EQ(read_back, payload);
}

TEST(FileTest, MissingFileFails) {
  std::string content;
  EXPECT_FALSE(ReadFileToString("/no/such/file", &content));
  EXPECT_FALSE(FileExists("/no/such/file"));
  EXPECT_FALSE(WriteStringToFile("/no/such/dir/file", "x"));
}

}  // namespace
}  // namespace oodgnn
