#include "util/logging.h"

#include <cstdio>
#include <mutex>

namespace flexran::util {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::trace: return "TRACE";
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view component, std::string_view message) {
  static std::mutex mutex;
  std::scoped_lock lock(mutex);
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", to_string(level), static_cast<int>(component.size()),
               component.data(), static_cast<int>(message.size()), message.data());
}

}  // namespace flexran::util
