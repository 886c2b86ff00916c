#include "src/util/logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace oodgnn {
namespace {

/// Parses OODGNN_LOG_LEVEL ("debug"/"info"/"warning"/"warn"/"error",
/// case-insensitive, or 0–3). Returns kInfo when unset or unparseable.
int LevelFromEnv() {
  const char* env = std::getenv("OODGNN_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::isdigit(static_cast<unsigned char>(env[0]))) {
    const int v = std::atoi(env);
    if (v >= 0 && v <= static_cast<int>(LogLevel::kError)) return v;
    return static_cast<int>(LogLevel::kInfo);
  }
  std::string name;
  for (const char* p = env; *p != '\0'; ++p) {
    name.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (name == "debug") return static_cast<int>(LogLevel::kDebug);
  if (name == "info") return static_cast<int>(LogLevel::kInfo);
  if (name == "warning" || name == "warn") {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (name == "error") return static_cast<int>(LogLevel::kError);
  return static_cast<int>(LogLevel::kInfo);
}

/// The minimum severity printed, resolved from OODGNN_LOG_LEVEL on the
/// first log statement, however early that runs, and fixed after.
int MinLevel() {
  static const int level = LevelFromEnv();
  return level;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // File/line prefixes are only useful for debugging output.
  if (level == LogLevel::kDebug) stream_ << file << ":" << line << " ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < MinLevel()) return;
  std::fprintf(stderr, "[oodgnn %s] %s\n", LevelName(level_),
               stream_.str().c_str());
}

}  // namespace internal_logging
}  // namespace oodgnn
