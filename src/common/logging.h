#ifndef ENTMATCHER_COMMON_LOGGING_H_
#define ENTMATCHER_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace entmatcher {

/// Severity levels for the minimal logging facility.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// The minimum level emitted to stderr (kInfo).
LogLevel GetLogLevel();

namespace internal_logging {

/// Stream-style log line writer; emits to stderr on destruction if the
/// message level passes the active threshold.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

/// Usage: EM_LOG(Info) << "generated " << n << " triples";
#define EM_LOG(level)                                            \
  ::entmatcher::internal_logging::LogMessage(                    \
      ::entmatcher::LogLevel::k##level, __FILE__, __LINE__)      \
      .stream()

/// Fatal check: prints the failed condition and aborts. Used for programmer
/// errors (contract violations), not for recoverable conditions — those use
/// Status.
#define EM_CHECK(cond)                                                       \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::cerr << "CHECK failed at " << __FILE__ << ":" << __LINE__ << ": " \
                << #cond << std::endl;                                       \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

}  // namespace entmatcher

#endif  // ENTMATCHER_COMMON_LOGGING_H_
