#include "src/obs/trace.h"

#include <atomic>

namespace oodgnn {
namespace obs {
namespace {

std::atomic<bool> g_profiling{false};

}  // namespace

bool ProfilingEnabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  g_profiling.store(enabled, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace oodgnn
