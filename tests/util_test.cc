#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace oodgnn {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformInHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasApproximateMoments) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(Mean(samples), 5.0, 0.1);
  EXPECT_NEAR(StdDev(samples), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  std::vector<size_t> perm = rng.Permutation(50);
  std::sort(perm.begin(), perm.end());
  for (size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(8);
  Rng child = parent.Fork();
  // The fork must not replay the parent's stream.
  Rng parent2(8);
  parent2.Fork();
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (child.UniformInt(0, 1 << 30) != parent.UniformInt(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_NEAR(StdDev(values), 2.138, 1e-3);
}

TEST(StatsTest, StdDevOfSingleValueIsZero) {
  EXPECT_DOUBLE_EQ(StdDev({3.0}), 0.0);
}

TEST(StatsTest, MeanStdStringFormat) {
  EXPECT_EQ(MeanStdString({1.0, 2.0, 3.0}, 1), "2.0±1.0");
}

TEST(StatsTest, HistogramCountsAndClamping) {
  Histogram hist = MakeHistogram({0.0, 0.5, 1.0, 2.0, -1.0}, 2, 0.0, 1.0);
  ASSERT_EQ(hist.counts.size(), 2u);
  // -1 clamps into bin 0; 1.0 and 2.0 clamp into bin 1.
  EXPECT_EQ(hist.counts[0] + hist.counts[1], 5);
  EXPECT_EQ(hist.counts[0], 2);  // 0.0 and -1.0
  EXPECT_EQ(hist.counts[1], 3);  // 0.5 lands in bin 1 (t=0.5 -> bin 1)
}

TEST(StatsTest, HistogramAutoRange) {
  Histogram hist = MakeHistogram({1.0, 2.0, 3.0}, 3);
  EXPECT_DOUBLE_EQ(hist.lo, 1.0);
  EXPECT_DOUBLE_EQ(hist.hi, 3.0);
}

TEST(StatsTest, RenderHistogramHasOneLinePerBin) {
  Histogram hist = MakeHistogram({0.1, 0.9}, 4, 0.0, 1.0);
  std::string rendered = RenderHistogram(hist);
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 4);
}

TEST(TableTest, AlignsAndRendersRows) {
  ResultTable table({"Method", "ACC"});
  table.AddRow({"GIN", "55.5"});
  table.AddRow({"OOD-GNN", "67.2"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("OOD-GNN"), std::string::npos);
  EXPECT_NE(rendered.find("Method"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  ResultTable table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7",
                        "positional", "--flag"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("flag", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, BoolFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

TEST(ThreadCountTest, AcceptsWholeNumbersUpToTheCap) {
  EXPECT_EQ(ParseThreadCount("1", "test"), 1);
  EXPECT_EQ(ParseThreadCount("4", "test"), 4);
  EXPECT_EQ(ParseThreadCount("007", "test"), 7);
  EXPECT_EQ(ParseThreadCount(std::to_string(kMaxThreads), "test"),
            kMaxThreads);
}

TEST(ThreadCountTest, RejectsEverythingElseAndRunsSerial) {
  const std::vector<std::string> rejected = {
      "",   "0",    "abc", "4x", " 4", "4 ", "+4", "-4", "4.0", "0x10",
      std::to_string(kMaxThreads + 1), "100000", "99999999999999999999999"};
  for (const std::string& text : rejected) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ParseThreadCount(text, "--threads"), 1) << "'" << text << "'";
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("--threads: thread count '" + text + "'"),
              std::string::npos)
        << log;
  }
}

TEST(ThreadCountTest, FlagAndEnvironmentGoThroughTheParser) {
  const auto threads = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    ::testing::internal::CaptureStderr();
    const int parsed =
        Flags(static_cast<int>(args.size()), const_cast<char**>(args.data()))
            .GetThreads(2);
    ::testing::internal::GetCapturedStderr();
    return parsed;
  };
  EXPECT_EQ(threads({"--threads", "3"}), 3);
  EXPECT_EQ(threads({"--threads", "abc"}), 1);
  EXPECT_EQ(threads({"--threads", "4x"}), 1);
  EXPECT_EQ(threads({"--threads=100000"}), 1);
  EXPECT_EQ(threads({"--threads"}), 1);  // Bare flag: "true".
  ASSERT_EQ(::setenv("OODGNN_THREADS", "4x", 1), 0);
  EXPECT_EQ(threads({}), 1);
  EXPECT_EQ(threads({"--threads", "3"}), 3);  // The flag wins.
  ASSERT_EQ(::unsetenv("OODGNN_THREADS"), 0);
  EXPECT_EQ(threads({}), 2);
}

// /dev/full accepts the open and the buffered write, then fails the
// flush at close with ENOSPC: the write must report that.
TEST(FileTest, FailedFlushIsReported) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(WriteStringToFile("/dev/full", std::string(100, 'x')));
}

}  // namespace
}  // namespace oodgnn
