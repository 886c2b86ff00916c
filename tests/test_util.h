#ifndef OODGNN_TESTS_TEST_UTIL_H_
#define OODGNN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/util/clock.h"

namespace oodgnn {
namespace test {

/// Manually driven Clock for timing tests: starts at `start_us` and
/// moves only when the test says so. Injected wherever production code
/// takes a Clock* (request spans, SLO windows, token buckets,
/// deadlines), it makes every time-driven decision reproducible
/// without wall-clock sleeps. Thread-safe: submitter/worker threads
/// may read while the test advances.
///
/// Set() may move time backwards on purpose — the clock-jump edge case
/// the SLO property tests exercise (consumers are expected to clamp).
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t start_us = 1000000) : now_us_(start_us) {}

  std::int64_t NowMicros() const override {
    return now_us_.load(std::memory_order_relaxed);
  }

  /// Moves time forward by `delta_us` (>= 0) and returns the new time.
  std::int64_t Advance(std::int64_t delta_us) {
    return now_us_.fetch_add(delta_us, std::memory_order_relaxed) + delta_us;
  }

  /// Jumps to an absolute time — possibly backwards.
  void Set(std::int64_t now_us) {
    now_us_.store(now_us, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> now_us_;
};

/// Process-unique temp path under gtest's TempDir.
///
/// Unique per top-level test process so the env-variant re-runs of a
/// binary (<name>_threads4 / _profile / _scalar) don't race on
/// shared files under a parallel ctest. The token is carried in the
/// environment (OODGNN_TEST_TMP_TOKEN) so crash-injection /
/// death-test children resolve the parent's paths instead of minting
/// their own.
inline std::string TempPath(const std::string& name) {
  static const std::string token = [] {
    const char* env = std::getenv("OODGNN_TEST_TMP_TOKEN");
    if (env != nullptr && *env != '\0') return std::string(env);
    const std::string fresh = std::to_string(static_cast<long>(::getpid()));
    ::setenv("OODGNN_TEST_TMP_TOKEN", fresh.c_str(), 1);
    return fresh;
  }();
  return std::string(::testing::TempDir()) + "/tok" + token + "_" + name;
}

}  // namespace test
}  // namespace oodgnn

#endif  // OODGNN_TESTS_TEST_UTIL_H_
