// Small string helpers (libstdc++ 12 has no <format>, so formatting goes
// through snprintf wrappers).
#ifndef ATYPICAL_UTIL_STRING_UTIL_H_
#define ATYPICAL_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atypical {

// printf-style formatting into a std::string.
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Formats a byte count as "12.3 KB" / "4.5 MB" etc.
std::string HumanBytes(uint64_t bytes);

// Formats minutes-of-day as "8:05am"-style clock text (paper figures use
// clock-time labels for temporal features).
std::string ClockLabel(int minute_of_day);

// Parses a non-negative integer; returns -1 on malformed input and on
// values above INT64_MAX.
int64_t ParseInt64(std::string_view text);

// Parses a double; returns `fallback` on malformed input.
double ParseDouble(std::string_view text, double fallback);

}  // namespace atypical

#endif  // ATYPICAL_UTIL_STRING_UTIL_H_
