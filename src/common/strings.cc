#include "common/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cmath>

namespace stmaker {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatNumber(double value, int digits) {
  if (digits < 0) digits = 0;
  std::string s = StrFormat("%.*f", digits, value);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

std::string FormatDuration(double seconds) {
  if (seconds < 0) seconds = 0;
  long total = std::lround(seconds);
  if (total < 120) {
    return StrFormat("%ld second%s", total, total == 1 ? "" : "s");
  }
  long minutes = total / 60;
  if (minutes < 60) {
    return StrFormat("%ld minutes", minutes);
  }
  long hours = minutes / 60;
  minutes %= 60;
  std::string out = StrFormat("%ld hour%s", hours, hours == 1 ? "" : "s");
  if (minutes > 0) out += StrFormat(" %ld minutes", minutes);
  return out;
}

}  // namespace stmaker
