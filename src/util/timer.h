#ifndef OODGNN_UTIL_TIMER_H_
#define OODGNN_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace oodgnn {

/// Microseconds on the process-wide monotonic clock. Phase scopes
/// (src/obs/trace), the run journal (src/obs/journal) and Timer all
/// read this one clock, so their timestamps are directly comparable.
inline std::int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_us_(NowMicros()) {}

  /// Resets the stopwatch to zero.
  void Restart() { start_us_ = NowMicros(); }

  /// Elapsed seconds since construction or the last Restart().
  double ElapsedSeconds() const {
    return static_cast<double>(NowMicros() - start_us_) * 1e-6;
  }

  /// Elapsed milliseconds since construction or the last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  std::int64_t start_us_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_TIMER_H_
