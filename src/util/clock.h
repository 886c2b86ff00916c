#ifndef OODGNN_UTIL_CLOCK_H_
#define OODGNN_UTIL_CLOCK_H_

#include <cstdint>

#include "src/util/timer.h"

namespace oodgnn {

/// Injectable time source for everything in the serving path that
/// *decides* based on time: request-span stamps, token-bucket refills
/// and deadline expiry all read an abstract Clock instead of calling
/// NowMicros() directly. Production code uses
/// Clock::Real() (the same process-wide monotonic clock as the phase
/// scopes and journal, so timestamps stay comparable); tests inject a
/// FakeClock (tests/test_util.h) and advance it by hand, which makes
/// deadline expiry, quota refill, burn-rate breach and shed decisions
/// exactly reproducible without wall-clock sleeps.
///
/// Implementations must be thread-safe: the engine stamps spans from
/// submitter threads and reads deadlines from worker threads through
/// one shared instance.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds. Real time is monotonic; fake clocks
  /// may jump arbitrarily (consumers that need monotonicity clamp).
  virtual std::int64_t NowMicros() const = 0;

  /// The process-wide monotonic clock (util/timer.h NowMicros).
  /// Never null; the returned instance lives for the process.
  static const Clock* Real();
};

namespace internal {

/// Clock::Real()'s implementation, exposed only so it can be
/// instantiated as a function-local static in the header.
class RealClock final : public Clock {
 public:
  std::int64_t NowMicros() const override { return ::oodgnn::NowMicros(); }
};

}  // namespace internal

inline const Clock* Clock::Real() {
  static const internal::RealClock clock;
  return &clock;
}

}  // namespace oodgnn

#endif  // OODGNN_UTIL_CLOCK_H_
