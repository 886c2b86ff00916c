// Tests for the low-level infrastructure: check macros, logging
// controls, and the stopwatch.

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "gtest/gtest.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace oodgnn {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  OODGNN_CHECK(true);
  OODGNN_CHECK_EQ(1, 1);
  OODGNN_CHECK_NE(1, 2);
  OODGNN_CHECK_LT(1, 2);
  OODGNN_CHECK_LE(2, 2);
  OODGNN_CHECK_GT(3, 2);
  OODGNN_CHECK_GE(3, 3);
}

TEST(CheckDeathTest, FailingCheckAbortsWithMessage) {
  EXPECT_DEATH(OODGNN_CHECK(false) << "context " << 42,
               "CHECK failed.*context 42");
  EXPECT_DEATH(OODGNN_CHECK_EQ(1, 2), "CHECK failed");
}

TEST(CheckTest, ConditionEvaluatedExactlyOnce) {
  int calls = 0;
  auto count = [&calls] {
    ++calls;
    return true;
  };
  OODGNN_CHECK(count());
  EXPECT_EQ(calls, 1);
}

TEST(LoggingTest, LevelRoundTrip) {
  // Messages below and at the OODGNN_LOG_LEVEL minimum must both be
  // safe to build.
  OODGNN_LOG(Debug) << "suppressed " << 1;
  OODGNN_LOG(Error) << "emitted " << 2;
}

TEST(LoggingDeathTest, BadLevelTextKeepsInfoAndSaysSo) {
  // The child re-runs this binary, so it resolves the level afresh.
  // `2x` once read as 2 (warning) through std::atoi, with no word.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("OODGNN_LOG_LEVEL", "2x", 1);
        OODGNN_LOG(Info) << "info still printed";
        std::fflush(stderr);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0),
      "OODGNN_LOG_LEVEL: '2x'.*info still printed");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.ElapsedMillis();
  EXPECT_GE(elapsed, 15.0);
  EXPECT_LT(elapsed, 2000.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

TEST(TimerTest, SecondsAndMillisAgree) {
  Timer timer;
  const double seconds = timer.ElapsedSeconds();
  const double millis = timer.ElapsedMillis();
  EXPECT_NEAR(millis, seconds * 1e3, 5.0);
}

}  // namespace
}  // namespace oodgnn
