// A minimal JSON value + recursive-descent parser (no external dependencies).
//
// Supports the subset the function-definition format needs: objects, arrays,
// strings (with standard escapes), numbers, booleans and null. Parse errors
// carry a byte offset and a human-readable reason.
#ifndef FIREWORKS_SRC_LANG_JSON_H_
#define FIREWORKS_SRC_LANG_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/base/status.h"

namespace fwlang {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : v_(nullptr) {}
  explicit JsonValue(bool b) : v_(b) {}
  explicit JsonValue(double d) : v_(d) {}
  explicit JsonValue(std::string s) : v_(std::move(s)) {}
  explicit JsonValue(Array a) : v_(std::move(a)) {}
  explicit JsonValue(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool AsBool() const { return std::get<bool>(v_); }
  double AsNumber() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }
  const Array& AsArray() const { return std::get<Array>(v_); }
  const Object& AsObject() const { return std::get<Object>(v_); }

  // Object field lookup; nullptr if absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

// Reads a count (a byte, page or op count) from outside input. InvalidArgument
// unless `value` is present (non-null, so a Find() result passes straight in)
// and a non-negative integral number below 2^64: a fraction would truncate,
// and casting a double at or past 2^64 to uint64_t is undefined behaviour.
fwbase::Result<uint64_t> JsonCount(const JsonValue* value);

// Deepest nesting of arrays and objects ParseJson accepts. The parser
// recurses once per level, so deeper input is rejected with a status rather
// than allowed to exhaust the stack. Real documents nest at most 5 deep.
inline constexpr int kMaxJsonDepth = 64;

// Parses a complete JSON document (rejects trailing garbage and nesting
// deeper than kMaxJsonDepth).
fwbase::Result<JsonValue> ParseJson(std::string_view text);

// Serializes with no insignificant whitespace; object keys sorted (map order).
// Strings are quoted by fwbase::JsonQuote: control bytes and bytes that are
// not valid UTF-8 are written as \u00XX escapes.
std::string JsonToString(const JsonValue& value);

}  // namespace fwlang

#endif  // FIREWORKS_SRC_LANG_JSON_H_
