#ifndef BOLTON_UTIL_JSON_H_
#define BOLTON_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/result.h"

namespace bolton {

/// A minimal JSON document model + recursive-descent parser for the serve
/// request bodies. Scope is deliberately small: strict RFC 8259 input
/// (no comments, no trailing commas, UTF-8 passed through opaquely except
/// for \uXXXX escapes of BMP code points), a depth cap, and whole-input
/// validation — trailing garbage after the document is an error. Writing
/// goes through JsonWriter below.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member accessors with defaults, for flat request bodies:
  /// absent key -> `fallback`; present with the wrong type ->
  /// InvalidArgument naming the key, so a handler can answer 400 with a
  /// useful message instead of silently coercing.
  Result<std::string> GetString(const std::string& key,
                                const std::string& fallback) const;
  Result<double> GetNumber(const std::string& key, double fallback) const;
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document covering the whole input. InvalidArgument with
/// byte offset on malformed input; nesting beyond 64 levels is rejected.
Result<JsonValue> ParseJson(const std::string& text);

/// The one JSON writer: every JSON document the program renders goes
/// through it, so commas, string escaping and number syntax are decided
/// here. Output is compact. Integers print exactly; doubles print as the
/// shortest text that parses back to the same value; NaN and ±inf, which
/// JSON cannot spell, print as null. Callers pair Begin/End themselves.
///
///   JsonWriter w;
///   w.BeginObject().Field("name", "x").Field("n", 3).EndObject();
///   w.str();  // {"name":"x","n":3}
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);
  /// Exactly `decimals` digits after the point, for consumers that pin them.
  JsonWriter& Fixed(double value, int decimals);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  /// Inserts a finished JSON value from another renderer, not re-escaped.
  JsonWriter& Raw(std::string_view json) {
    Next(true) += json;
    return *this;
  }

  /// Key(key) and the value, written by type: bool, integer, floating
  /// point, or text (so a string literal renders as a string, not `true`).
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    static_assert(!std::is_same_v<T, char>, "pass a char as a string_view");
    Key(key);
    if constexpr (std::is_same_v<T, bool>) return Bool(value);
    else if constexpr (std::is_floating_point_v<T>) return Double(value);
    else if constexpr (std::is_signed_v<T>) return Int(value);
    else if constexpr (std::is_integral_v<T>) return Uint(value);
    else return String(value);
  }

  const std::string& str() const { return out_; }

 private:
  /// The output, after the comma owed to a preceding sibling; `then_comma`
  /// says whether what is appended next is owed one itself.
  std::string& Next(bool then_comma) {
    if (need_comma_) out_ += ',';
    need_comma_ = then_comma;
    return out_;
  }
  JsonWriter& Open(char bracket) {
    Next(false) += bracket;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  /// std::to_chars(args...), or null when it does not fit.
  template <typename... Args>
  JsonWriter& Chars(Args... args);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace bolton

#endif  // BOLTON_UTIL_JSON_H_
