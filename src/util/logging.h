#ifndef OODGNN_UTIL_LOGGING_H_
#define OODGNN_UTIL_LOGGING_H_

#include <atomic>
#include <sstream>
#include <string>

namespace oodgnn {

/// Severity levels for the library logger. Messages below the minimum
/// severity are dropped; the minimum is the OODGNN_LOG_LEVEL environment
/// variable ("debug"/"info"/"warning"/"error" or the whole numbers
/// 0–3), read once, or kInfo when it is unset; other text prints an
/// error line and keeps kInfo.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Builds a log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace oodgnn

#define OODGNN_LOG(level)                                       \
  ::oodgnn::internal_logging::LogMessage(                       \
      ::oodgnn::LogLevel::k##level, __FILE__, __LINE__)

#define OODGNN_LOGGING_CONCAT_IMPL(a, b) a##b
#define OODGNN_LOGGING_CONCAT(a, b) OODGNN_LOGGING_CONCAT_IMPL(a, b)

/// Emits the message on the 1st, (n+1)th, (2n+1)th, … execution of this
/// call site (a per-site atomic counter), so per-batch warnings cannot
/// flood stderr. Expands to a declaration plus an if — use it as a full
/// statement inside a braced block, never as the body of an unbraced if.
#define OODGNN_LOG_EVERY_N(level, n)                                       \
  static ::std::atomic<long> OODGNN_LOGGING_CONCAT(oodgnn_log_occurrences_, \
                                                   __LINE__){0};            \
  if (OODGNN_LOGGING_CONCAT(oodgnn_log_occurrences_, __LINE__)              \
              .fetch_add(1, ::std::memory_order_relaxed) %                  \
          (n) ==                                                            \
      0)                                                                    \
  OODGNN_LOG(level)

#endif  // OODGNN_UTIL_LOGGING_H_
