#ifndef OODGNN_OBS_TRACE_H_
#define OODGNN_OBS_TRACE_H_

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace oodgnn {
namespace obs {

/// True when the per-kernel counters (src/tensor/backend.cc) record;
/// off until SetProfilingEnabled(true), which the --profile flag calls.
/// When false, every kernel counter is a branch on one relaxed atomic
/// load: nothing is timed or registered. Phase scopes are always on.
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

/// RAII phase timer: observes the microseconds between construction
/// and destruction into `histogram`. Two clock reads and one Observe;
/// no strings and no heap.
class PhaseTimer {
 public:
  explicit PhaseTimer(StreamingHistogram* histogram)
      : histogram_(histogram), start_us_(NowMicros()) {}
  ~PhaseTimer() {
    histogram_->Observe(static_cast<double>(NowMicros() - start_us_));
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  StreamingHistogram* histogram_;
  std::int64_t start_us_;
};

}  // namespace obs
}  // namespace oodgnn

#define OODGNN_TRACE_CONCAT_IMPL(a, b) a##b
#define OODGNN_TRACE_CONCAT(a, b) OODGNN_TRACE_CONCAT_IMPL(a, b)

/// Times the rest of the enclosing block into the global registry's
/// histogram `name`, a string literal following the area/phase/us
/// convention (scripts/check_metric_names.sh); the `""` pasted in front
/// makes any other argument a compile error. Each call site looks its
/// histogram up once, on its first pass.
#define OODGNN_TRACE_SCOPE(name)                                          \
  static ::oodgnn::obs::StreamingHistogram& OODGNN_TRACE_CONCAT(          \
      oodgnn_phase_histogram_, __LINE__) =                                \
      ::oodgnn::obs::MetricsRegistry::Global().GetHistogram("" name);     \
  ::oodgnn::obs::PhaseTimer OODGNN_TRACE_CONCAT(oodgnn_phase_timer_,      \
                                                __LINE__)(                \
      &OODGNN_TRACE_CONCAT(oodgnn_phase_histogram_, __LINE__))

#endif  // OODGNN_OBS_TRACE_H_
