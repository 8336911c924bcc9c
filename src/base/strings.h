// Small string helpers (no std::format on this toolchain).
#ifndef FIREWORKS_SRC_BASE_STRINGS_H_
#define FIREWORKS_SRC_BASE_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace fwbase {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single character, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// `s` as a JSON string literal, quotes included: the mandatory escapes, and
// \u00XX for every other control byte and every byte that is not part of
// well-formed UTF-8, so the result is always valid UTF-8 JSON whatever
// bytes `s` holds (span names and attributes carry user strings).
std::string JsonQuote(std::string_view s);

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_STRINGS_H_
