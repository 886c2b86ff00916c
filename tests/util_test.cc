#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "tests/test_util.h"

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

// Rng's own MT19937-64 must be std::mt19937_64 to the bit: every sampler
// draws from Rng(seed) what the same <random> distribution (or the same
// loop over one) draws from a std::mt19937_64(seed) twin, and the state
// text after each sampler, mid-block included, is the twin's.
TEST(RngTest, SamplersMatchAStdMt19937_64Twin) {
  const std::vector<double> weights = {0.5, 2.0, 0.0, 1.25, 3.0};
  const double weight_total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  for (const uint64_t seed :
       {uint64_t{0}, uint64_t{1}, uint64_t{5489}, ~uint64_t{0}}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::mt19937_64 twin(seed);
    const auto same_text = [&] {
      return rng.SaveState() == test::StdEngineText(twin);
    };
    ASSERT_TRUE(same_text());
    // ~190 words a round: 40 rounds cross more than 20 state blocks, and
    // the odd counts leave each text check at a different index.
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 13; ++i) {
        using Dist = std::uniform_int_distribution<int64_t>;
        ASSERT_EQ(rng.UniformInt(-5, 1000 + round),
                  Dist(-5, 1000 + round)(twin));
        ASSERT_EQ(rng.UniformInt(0, (int64_t{1} << 40) + round),
                  Dist(0, (int64_t{1} << 40) + round)(twin));
        ASSERT_EQ(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()),
                  Dist(std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max())(twin));
      }
      ASSERT_TRUE(same_text()) << "UniformInt " << round;
      for (int i = 0; i < 23; ++i) {
        ASSERT_EQ(rng.Uniform(-2.0, 3.5),
                  std::uniform_real_distribution<double>(-2.0, 3.5)(twin));
      }
      ASSERT_TRUE(same_text()) << "Uniform " << round;
      for (int i = 0; i < 19; ++i) {
        ASSERT_EQ(rng.Normal(1.0, 0.5),
                  std::normal_distribution<double>(1.0, 0.5)(twin));
      }
      ASSERT_TRUE(same_text()) << "Normal " << round;
      for (const double p : {1e-4, 0.3, 1.0 / 3.0, 0.5, 0.9}) {
        for (int i = 0; i < 7; ++i) {
          ASSERT_EQ(rng.Bernoulli(p), std::bernoulli_distribution(p)(twin));
        }
      }
      ASSERT_TRUE(same_text()) << "Bernoulli " << round;
      for (int i = 0; i < 11; ++i) {
        const double r =
            std::uniform_real_distribution<double>(0.0, weight_total)(twin);
        size_t want = weights.size() - 1;
        double cumulative = 0.0;
        for (size_t k = 0; k < weights.size(); ++k) {
          cumulative += weights[k];
          if (r < cumulative) {
            want = k;
            break;
          }
        }
        ASSERT_EQ(rng.Categorical(weights), want);
      }
      ASSERT_TRUE(same_text()) << "Categorical " << round;
      std::vector<size_t> want(41);
      std::iota(want.begin(), want.end(), size_t{0});
      for (size_t i = want.size(); i > 1; --i) {
        const auto j = std::uniform_int_distribution<int64_t>(
            0, static_cast<int64_t>(i) - 1)(twin);
        std::swap(want[i - 1], want[static_cast<size_t>(j)]);
      }
      ASSERT_EQ(rng.Permutation(41), want);
      ASSERT_TRUE(same_text()) << "Permutation " << round;
    }
    // The twin's text restores into an Rng that goes on in step.
    Rng restored(seed + 1);
    ASSERT_TRUE(restored.LoadState(test::StdEngineText(twin)));
    for (int i = 0; i < 500; ++i) ASSERT_EQ(restored.engine()(), twin());
  }
}

// BernoulliThreshold(p) is the word where std::bernoulli_distribution(p)
// turns from true to false. Random words almost never land on that
// word, so the mask tests cannot see an off-by-one; pin it directly.
TEST(RngTest, BernoulliThresholdIsTheExactBoundary) {
  // Small words convert to double exactly: x·2⁻⁶⁴ < 2⁻⁶⁰ ⇔ x < 16.
  EXPECT_EQ(Rng::BernoulliThreshold(std::ldexp(1.0, -60)), 16u);
  EXPECT_EQ(Rng::BernoulliThreshold(0.0), 0u);
  // Doubles just below 2⁶³ are 1024 apart, and 2⁶³ − 512 rounds (to
  // even) up to 2⁶³, so it is the first word whose draw reaches 0.5.
  EXPECT_EQ(Rng::BernoulliThreshold(0.5), (uint64_t{1} << 63) - 512);
  struct OneWord {
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return word; }
    result_type word;
  };
  for (const double p : {1e-4, 0.1, 0.3, 1.0 / 3.0, 0.5, 0.9,
                         double{std::nextafter(1.f, 0.f)},
                         std::nextafter(1.0, 0.0)}) {
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    std::bernoulli_distribution dist(p);
    OneWord last_true{threshold - 1};
    OneWord first_false{threshold};
    EXPECT_TRUE(dist(last_true)) << p;
    EXPECT_FALSE(dist(first_false)) << p;
  }
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

// GetInt/GetDouble read the whole value or nothing: a typo logs the
// flag and its text and falls back instead of becoming 0.
TEST(FlagsTest, NumericValuesParseStrictly) {
  const auto parse = [](const std::string& value, auto fallback,
                        std::string* log) {
    const std::string arg = "--n=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Flags flags(2, const_cast<char**>(argv));
    ::testing::internal::CaptureStderr();
    decltype(fallback) parsed;
    if constexpr (std::is_same_v<decltype(fallback), int>) {
      parsed = flags.GetInt("n", fallback);
    } else {
      parsed = flags.GetDouble("n", fallback);
    }
    *log = ::testing::internal::GetCapturedStderr();
    return parsed;
  };
  std::string log;
  for (const std::string text : {"abc", "12x", "", "99999999999", "1.5"}) {
    EXPECT_EQ(parse(text, 9, &log), 9) << "'" << text << "'";
    EXPECT_NE(log.find("--n: '" + text + "'"), std::string::npos) << log;
  }
  for (const std::string text : {"0.2.3", "nan", "1e999", "inf", "abc", ""}) {
    EXPECT_EQ(parse(text, 1.5, &log), 1.5) << "'" << text << "'";
    EXPECT_NE(log.find("--n: '" + text + "'"), std::string::npos) << log;
  }
  EXPECT_EQ(parse("-3", 9, &log), -3);
  EXPECT_EQ(log, "");
  EXPECT_EQ(parse("-3", 1.5, &log), -3.0);
  EXPECT_EQ(parse("0.25", 1.5, &log), 0.25);
  EXPECT_EQ(parse("1e-3", 1.5, &log), 1e-3);
  EXPECT_EQ(log, "");
}

TEST(FlagsTest, MetricsIntervalEnvironmentParsesStrictly) {
  const char* argv[] = {"prog"};
  const Flags flags(1, const_cast<char**>(argv));
  ASSERT_EQ(::setenv("OODGNN_METRICS_INTERVAL_MS", "250", 1), 0);
  EXPECT_EQ(flags.GetMetricsIntervalMs(1000), 250);
  ASSERT_EQ(::setenv("OODGNN_METRICS_INTERVAL_MS", "25O", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(flags.GetMetricsIntervalMs(1000), 1000);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("OODGNN_METRICS_INTERVAL_MS: '25O'"), std::string::npos)
      << log;
  ASSERT_EQ(::unsetenv("OODGNN_METRICS_INTERVAL_MS"), 0);
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
