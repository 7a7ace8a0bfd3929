// Tiny leveled logger. Messages below WARN are dropped to keep benches
// quiet.
#pragma once

#include <iostream>
#include <sstream>
#include <string>

namespace gcs {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

/// Stream-style one-shot log statement: LogLine(kInfo) << "x=" << x;
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level), enabled_(level >= log_level()) {}
  ~LogLine() {
    if (enabled_) detail::log_emit(level_, stream_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

#define GCS_LOG(level) ::gcs::LogLine(level)
#define GCS_TRACE ::gcs::LogLine(::gcs::LogLevel::kTrace)
#define GCS_DEBUG ::gcs::LogLine(::gcs::LogLevel::kDebug)
#define GCS_INFO ::gcs::LogLine(::gcs::LogLevel::kInfo)
#define GCS_WARN ::gcs::LogLine(::gcs::LogLevel::kWarn)
#define GCS_ERROR ::gcs::LogLine(::gcs::LogLevel::kError)

}  // namespace gcs
