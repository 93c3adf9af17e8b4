#ifndef ENTMATCHER_COMMON_STRING_UTIL_H_
#define ENTMATCHER_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace entmatcher {

/// Splits `text` on `delim`, keeping empty fields. "a\tb" -> {"a", "b"}.
std::vector<std::string_view> SplitString(std::string_view text, char delim);

/// Joins `parts` with `delim`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Formats a byte count as a human-readable string ("12.3 MB").
std::string FormatBytes(size_t bytes);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses an unsigned decimal number from outside input: ASCII digits only
/// (no sign, no whitespace, not empty) and at most UINT64_MAX. Returns
/// false, leaving `*out` untouched, on anything else.
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace entmatcher

#endif  // ENTMATCHER_COMMON_STRING_UTIL_H_
