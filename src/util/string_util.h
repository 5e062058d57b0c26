#ifndef FAE_UTIL_STRING_UTIL_H_
#define FAE_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fae {

/// "1.50 GB", "256.00 MB", "12 B" — for table-size reporting (Fig 2, 6, 9).
std::string HumanBytes(uint64_t bytes);

/// "12.3 s", "450 ms", "1.2 min".
std::string HumanSeconds(double seconds);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Parses a non-negative decimal integer spanning all of `text`. False on
/// an empty string, a non-digit, or overflow past uint64 (never wraps).
bool ParseU64(std::string_view text, uint64_t* out);

/// Parses a double (strtod syntax) spanning all of `text`. False on an
/// empty string or trailing characters.
bool ParseDouble(std::string_view text, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fae

#endif  // FAE_UTIL_STRING_UTIL_H_
