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

int Flags::GetMaxInflight(int fallback) const {
  return GetInt("max-inflight", fallback);
}

std::int64_t Flags::GetDeadlineUs(std::int64_t fallback) const {
  auto it = values_.find("deadline-us");
  return it == values_.end()
             ? fallback
             : static_cast<std::int64_t>(std::atoll(it->second.c_str()));
}

bool Flags::GetShedOnSlo(bool fallback) const {
  return GetBool("shed-on-slo", fallback);
}

std::vector<TenantQuotaFlag> Flags::GetTenantQuotas() const {
  std::vector<TenantQuotaFlag> quotas;
  const std::string spec = GetString("tenant-quota", "");
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t c1 = entry.find(':');
    OODGNN_CHECK(c1 != std::string::npos && c1 > 0)
        << "malformed --tenant-quota entry '" << entry
        << "' (want name:tokens_per_sec[:burst])";
    TenantQuotaFlag quota;
    quota.tenant = entry.substr(0, c1);
    const size_t c2 = entry.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      quota.tokens_per_sec = std::atof(entry.substr(c1 + 1).c_str());
    } else {
      quota.tokens_per_sec =
          std::atof(entry.substr(c1 + 1, c2 - c1 - 1).c_str());
      quota.burst = std::atof(entry.substr(c2 + 1).c_str());
    }
    OODGNN_CHECK(quota.tokens_per_sec > 0)
        << "--tenant-quota rate must be positive in '" << entry << "'";
    if (quota.burst < 1.0) quota.burst = 1.0;
    quotas.push_back(quota);
  }
  return quotas;
}

}  // namespace oodgnn
