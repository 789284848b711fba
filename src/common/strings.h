#ifndef STMAKER_COMMON_STRINGS_H_
#define STMAKER_COMMON_STRINGS_H_

/// \file
/// Small string utilities: split, join, trim, prefix tests, formatting.

#include <string>
#include <string_view>
#include <vector>

namespace stmaker {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with `digits` decimals, trimming trailing zeros
/// ("14.0" → "14", "13.50" → "13.5"). Used by the text templates so that
/// summaries read naturally.
std::string FormatNumber(double value, int digits = 1);

/// Formats a duration in seconds as e.g. "167 seconds", "4 minutes",
/// "1 hour 12 minutes".
std::string FormatDuration(double seconds);

}  // namespace stmaker

#endif  // STMAKER_COMMON_STRINGS_H_
