// Minimal structured logger. Components log through FLEXRAN_LOG(level) << ...
// streams. Lines go to stderr, silenced below `warn` so simulation-heavy tests
// and benches stay quiet.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace flexran::util {

enum class LogLevel { trace = 0, debug = 1, info = 2, warn = 3, error = 4, off = 5 };

const char* to_string(LogLevel level);

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_ && level_ != LogLevel::off; }

  void write(LogLevel level, std::string_view component, std::string_view message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::warn;
};

/// RAII one-line log statement: LogLine(level, "agent") << "msg " << x;
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component), active_(Logger::instance().enabled(level)) {}
  ~LogLine() {
    if (active_) Logger::instance().write(level_, component_, stream_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (active_) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  bool active_;
  std::ostringstream stream_;
};

}  // namespace flexran::util

#define FLEXRAN_LOG(level, component) \
  ::flexran::util::LogLine(::flexran::util::LogLevel::level, component)
