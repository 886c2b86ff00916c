#include "src/obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <string>

namespace oodgnn {
namespace obs {
namespace {

std::atomic<int> g_profiling{-1};  // -1 = read OODGNN_PROFILE on first use

bool ProfilingFromEnv() {
  const char* env = std::getenv("OODGNN_PROFILE");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

}  // namespace

bool ProfilingEnabled() {
  int v = g_profiling.load(std::memory_order_relaxed);
  if (v < 0) {
    // A racing first read computes the same env answer twice — benign.
    v = ProfilingFromEnv() ? 1 : 0;
    g_profiling.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetProfilingEnabled(bool enabled) {
  g_profiling.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace oodgnn
