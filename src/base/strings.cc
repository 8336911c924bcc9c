#include "src/base/strings.h"

#include <cstdio>

namespace fwbase {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

// Length of the valid UTF-8 sequence starting at s[i], or 0 if the bytes
// there are not well-formed UTF-8 (truncated sequence, bad continuation
// byte, overlong encoding, surrogate, or > U+10FFFF).
size_t Utf8SequenceLength(std::string_view s, size_t i) {
  const unsigned char lead = static_cast<unsigned char>(s[i]);
  size_t len;
  unsigned char lo = 0x80;
  unsigned char hi = 0xbf;
  if (lead < 0x80) {
    return 1;
  } else if (lead >= 0xc2 && lead <= 0xdf) {
    len = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    len = 3;
    if (lead == 0xe0) {
      lo = 0xa0;  // reject overlong
    } else if (lead == 0xed) {
      hi = 0x9f;  // reject UTF-16 surrogates
    }
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    len = 4;
    if (lead == 0xf0) {
      lo = 0x90;  // reject overlong
    } else if (lead == 0xf4) {
      hi = 0x8f;  // reject > U+10FFFF
    }
  } else {
    return 0;  // 0x80..0xc1 and 0xf5..0xff are never lead bytes
  }
  if (i + len > s.size()) {
    return 0;
  }
  for (size_t k = 1; k < len; ++k) {
    const unsigned char c = static_cast<unsigned char>(s[i + k]);
    const unsigned char min = (k == 1) ? lo : 0x80;
    const unsigned char max = (k == 1) ? hi : 0xbf;
    if (c < min || c > max) {
      return 0;
    }
  }
  return len;
}

}  // namespace

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      default:
        break;
    }
    const unsigned char byte = static_cast<unsigned char>(c);
    const size_t len = byte < 0x20 ? 0 : Utf8SequenceLength(s, i);
    if (len == 0) {
      out += StrFormat("\\u%04x", byte);  // control byte or invalid UTF-8
      ++i;
      continue;
    }
    out.append(s, i, len);
    i += len;
  }
  out += '"';
  return out;
}

}  // namespace fwbase
