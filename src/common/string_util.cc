#include "common/string_util.h"

#include <cstdio>

namespace entmatcher {

std::vector<std::string_view> SplitString(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  const char* kWs = " \t\r\n";
  size_t begin = text.find_first_not_of(kWs);
  if (begin == std::string_view::npos) return std::string_view();
  size_t end = text.find_last_not_of(kWs);
  return text.substr(begin, end - begin + 1);
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

std::string FormatBytes(size_t bytes) {
  const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  return std::string(buf);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace entmatcher
