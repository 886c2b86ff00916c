#include "src/util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace oodgnn {

namespace {

/// `text` as a T when std::from_chars consumes all of it and the value
/// is in range (and finite, for a double); otherwise logs `source` and
/// `text` at Error and returns `fallback`.
template <typename T>
T ParseNumberOr(const std::string& text, const std::string& source,
                T fallback) {
  T value{};
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  bool ok = parsed.ec == std::errc() && parsed.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  OODGNN_LOG(Error) << source << ": '" << text << "' is not a "
                    << (std::is_floating_point_v<T> ? "finite number"
                                                    : "whole number in range")
                    << "; using " << fallback;
  return fallback;
}

}  // namespace

int ParseThreadCount(const std::string& text, const std::string& source) {
  int threads = 0;  // The scan stops past the cap, so it cannot overflow.
  for (const char c : text) {
    if (c < '0' || c > '9' || threads > kMaxThreads) {
      threads = 0;
      break;
    }
    threads = threads * 10 + (c - '0');
  }
  if (threads >= 1 && threads <= kMaxThreads) return threads;
  OODGNN_LOG(Error) << source << ": thread count '" << text
                    << "' is not a whole number in [1, " << kMaxThreads
                    << "]; running serial";
  return 1;
}

int ThreadCountFromEnv(int fallback) {
  const char* env = std::getenv("OODGNN_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  return ParseThreadCount(env, "OODGNN_THREADS");
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    OODGNN_CHECK(!body.empty()) << "bare '--' is not a valid flag";
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      OODGNN_CHECK(!name.empty()) << "malformed flag: " << arg;
      values_[name] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Flags::GetInt(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : ParseNumberOr(it->second, "--" + name, fallback);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : ParseNumberOr(it->second, "--" + name, fallback);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

int Flags::GetThreads(int fallback) const {
  if (!Has("threads")) return ThreadCountFromEnv(fallback);
  return ParseThreadCount(GetString("threads", ""), "--threads");
}

std::string Flags::GetMetricsOut(const std::string& fallback) const {
  if (Has("metrics-out")) return GetString("metrics-out", fallback);
  const char* env = std::getenv("OODGNN_METRICS_OUT");
  if (env != nullptr && *env != '\0') return env;
  return fallback;
}

int Flags::GetMetricsIntervalMs(int fallback) const {
  if (Has("metrics-interval-ms")) {
    return GetInt("metrics-interval-ms", fallback);
  }
  const char* env = std::getenv("OODGNN_METRICS_INTERVAL_MS");
  if (env != nullptr && *env != '\0') {
    return ParseNumberOr<int>(env, "OODGNN_METRICS_INTERVAL_MS", fallback);
  }
  return fallback;
}

}  // namespace oodgnn
