#include "util/log.h"

namespace gcs {

namespace {
constexpr LogLevel kThreshold = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return kThreshold; }

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  std::ostream& os = level >= LogLevel::kWarn ? std::cerr : std::cout;
  os << "[" << level_name(level) << "] " << msg << "\n";
}
}  // namespace detail

}  // namespace gcs
