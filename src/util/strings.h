// Small string utilities used by the YAML-lite parser and table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace flexran::util {

std::string_view trim(std::string_view text);
std::vector<std::string> split(std::string_view text, char delimiter);
std::vector<std::string> split_lines(std::string_view text);

/// Parses a decimal integer/real; returns false on malformed input.
bool parse_int(std::string_view text, long long& out);
bool parse_double(std::string_view text, double& out);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace flexran::util
