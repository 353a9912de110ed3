#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace atypical {

std::string StrPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrPrintf("%llu B", (unsigned long long)bytes);
  return StrPrintf("%.1f %s", value, kUnits[unit]);
}

std::string ClockLabel(int minute_of_day) {
  minute_of_day = ((minute_of_day % 1440) + 1440) % 1440;
  const int hour24 = minute_of_day / 60;
  const int minute = minute_of_day % 60;
  const char* suffix = hour24 < 12 ? "am" : "pm";
  int hour12 = hour24 % 12;
  if (hour12 == 0) hour12 = 12;
  return StrPrintf("%d:%02d%s", hour12, minute, suffix);
}

int64_t ParseInt64(std::string_view text) {
  if (text.empty()) return -1;
  int64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    const int digit = c - '0';
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) return -1;
    value = value * 10 + digit;
  }
  return value;
}

double ParseDouble(std::string_view text, double fallback) {
  if (text.empty()) return fallback;
  std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return fallback;
  return value;
}

}  // namespace atypical
