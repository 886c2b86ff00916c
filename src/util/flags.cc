#include "src/util/flags.h"

#include <cstdlib>

#include "src/util/check.h"

namespace oodgnn {

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
  return it == values_.end() ? fallback : std::atoi(it->second.c_str());
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

int Flags::GetThreads(int fallback) const {
  if (Has("threads")) return GetInt("threads", fallback);
  const char* env = std::getenv("OODGNN_THREADS");
  if (env != nullptr && *env != '\0') return std::atoi(env);
  return fallback;
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
  if (env != nullptr && *env != '\0') return std::atoi(env);
  return fallback;
}

}  // namespace oodgnn
