#include "src/lang/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "src/base/strings.h"

namespace fwlang {

using fwbase::Result;
using fwbase::Status;
using fwbase::StrFormat;

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto& object = AsObject();
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Result<uint64_t> JsonCount(const JsonValue* value) {
  // 2^64, exact as a double: every integral double below it fits a uint64_t.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (value == nullptr) {
    return Status::InvalidArgument("missing");
  }
  if (!value->is_number()) {
    return Status::InvalidArgument("expected a number");
  }
  const double d = value->AsNumber();
  if (!(d >= 0 && d < kTwoTo64) || d != std::floor(d)) {
    return Status::InvalidArgument("expected a non-negative integer below 2^64");
  }
  return static_cast<uint64_t>(d);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& reason) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, reason.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return Error(StrFormat("nesting deeper than %d levels", kMaxJsonDepth));
      }
      ++depth_;
      Result<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      Result<std::string> s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return JsonValue(*std::move(s));
    }
    if (c == 't' && ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (c == 'f' && ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    if (c == 'n' && ConsumeLiteral("null")) {
      return JsonValue(nullptr);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber();
    }
    return Error(StrFormat("unexpected character '%c'", c));
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue(std::move(object));
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key");
      }
      Result<std::string> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      if (!Consume(':')) {
        return Error("expected ':' after key");
      }
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      if (object.count(*key) != 0) {
        return Error("duplicate key \"" + *key + "\"");
      }
      object.emplace(*std::move(key), *std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValue(std::move(object));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue(std::move(array));
    }
    for (;;) {
      Result<JsonValue> value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      array.push_back(*std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValue(std::move(array));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Error(StrFormat("bad hex digit '%c' in \\u escape", h));
      }
    }
    return code;
  }

  static void AppendUtf8(std::string& out, uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          break;
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            // \uXXXX, decoded to UTF-8. Surrogate pairs combine; an unpaired
            // surrogate is replaced with U+FFFD rather than rejected, matching
            // the exporters, which emit \u00XX for bytes that were never valid
            // UTF-8 to begin with.
            auto cp = ParseHex4();
            if (!cp.ok()) {
              return cp.status();
            }
            uint32_t code = *cp;
            if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              auto lo = ParseHex4();
              if (!lo.ok()) {
                return lo.status();
              }
              if (*lo >= 0xDC00 && *lo <= 0xDFFF) {
                code = 0x10000 + ((code - 0xD800) << 10) + (*lo - 0xDC00);
              } else {
                code = 0xFFFD;
              }
            } else if (code >= 0xD800 && code <= 0xDFFF) {
              code = 0xFFFD;
            }
            AppendUtf8(out, code);
            break;
          }
          default:
            return Status::InvalidArgument(
                StrFormat("JSON parse error at offset %zu: unsupported escape '\\%c'", pos_ - 1,
                          escaped));
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Error("malformed number \"" + token + "\"");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays and objects open at pos_.
};

void Append(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.AsBool() ? "true" : "false";
  } else if (value.is_number()) {
    const double d = value.AsNumber();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      out += StrFormat("%lld", static_cast<long long>(d));
    } else {
      out += StrFormat("%.12g", d);
    }
  } else if (value.is_string()) {
    out += fwbase::JsonQuote(value.AsString());
  } else if (value.is_array()) {
    out.push_back('[');
    const auto& array = value.AsArray();
    for (size_t i = 0; i < array.size(); ++i) {
      if (i != 0) {
        out.push_back(',');
      }
      Append(array[i], out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, field] : value.AsObject()) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      out += fwbase::JsonQuote(key);
      out.push_back(':');
      Append(field, out);
    }
    out.push_back('}');
  }
}

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).ParseDocument(); }

std::string JsonToString(const JsonValue& value) {
  std::string out;
  Append(value, out);
  return out;
}

}  // namespace fwlang
