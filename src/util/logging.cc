#include "src/util/logging.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace oodgnn {
namespace {

/// Parses OODGNN_LOG_LEVEL ("debug"/"info"/"warning"/"warn"/"error",
/// case-insensitive, or a whole number 0–3). Returns kInfo when unset;
/// any other text prints one line naming the variable and its text,
/// and also returns kInfo. The line goes straight to stderr: the
/// logger cannot log while it resolves its own level.
int LevelFromEnv() {
  const int info = static_cast<int>(LogLevel::kInfo);
  const char* env = std::getenv("OODGNN_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return info;
  const std::string text = env;
  int number = -1;
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, number);
  if (parsed.ec == std::errc() && parsed.ptr == end && number >= 0 &&
      number <= static_cast<int>(LogLevel::kError)) {
    return number;
  }
  std::string name;
  for (const char c : text) {
    name.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (name == "debug") return static_cast<int>(LogLevel::kDebug);
  if (name == "info") return info;
  if (name == "warning" || name == "warn") {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (name == "error") return static_cast<int>(LogLevel::kError);
  std::fprintf(stderr,
               "[oodgnn ERROR] OODGNN_LOG_LEVEL: '%s' is not debug, info, "
               "warning, error or a whole number 0-3; using info\n",
               env);
  return info;
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
