#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/strings.h"

namespace bolton {

namespace {

constexpr size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    BOLTON_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("json: %s at byte %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Result<JsonValue> ParseValue(size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        BOLTON_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return JsonValue::MakeBool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return JsonValue::MakeBool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return JsonValue::MakeNull();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(size_t depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      BOLTON_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      BOLTON_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::MakeObject(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(size_t depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      BOLTON_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::MakeArray(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            BOLTON_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            AppendUtf8(cp, &out);
            break;
          }
          default:
            --pos_;
            return Error("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return Error("raw control character in string");
      out += static_cast<char>(c);
      ++pos_;
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    return value;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
      // sign consumed; digits must follow
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      pos_ = start;
      return Error("invalid value");
    }
    const size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    // RFC 8259: no leading zeros ("01" is two tokens, not a number).
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      pos_ = int_start;
      return Error("leading zeros are not allowed");
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits must follow decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits must follow exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Error("number out of range");
    }
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue out;
  out.type_ = Type::kArray;
  out.array_ = std::move(items);
  return out;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue out;
  out.type_ = Type::kObject;
  out.object_ = std::move(members);
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Result<std::string> JsonValue::GetString(const std::string& key,
                                         const std::string& fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument(
        StrFormat("field '%s' must be a string", key.c_str()));
  }
  return v->string_value();
}

Result<double> JsonValue::GetNumber(const std::string& key,
                                    double fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(
        StrFormat("field '%s' must be a number", key.c_str()));
  }
  return v->number_value();
}

Result<int64_t> JsonValue::GetInt(const std::string& key,
                                  int64_t fallback) const {
  // Beyond 2^53 a double no longer holds every integer, so the value may not
  // be the one the client sent (and beyond 2^63 the cast is undefined).
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() ||
      v->number_value() != std::floor(v->number_value()) ||
      std::fabs(v->number_value()) > kMaxExactInteger) {
    return Status::InvalidArgument(
        StrFormat("field '%s' must be an integer", key.c_str()));
  }
  return static_cast<int64_t>(v->number_value());
}

Result<bool> JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument(
        StrFormat("field '%s' must be a boolean", key.c_str()));
  }
  return v->bool_value();
}

Result<JsonValue> ParseJson(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

namespace {

void AppendQuoted(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          *out += c;
        } else {
          *out += "\\u00";
          *out += kHex[c >> 4];
          *out += kHex[c & 0xf];
        }
    }
  }
  *out += '"';
}

}  // namespace

JsonWriter& JsonWriter::Key(std::string_view key) {
  AppendQuoted(key, &Next(false));
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  AppendQuoted(value, &Next(true));
  return *this;
}

template <typename... Args>
JsonWriter& JsonWriter::Chars(Args... args) {
  char buf[512];  // any double in fixed notation: 309 digits, plus decimals
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), args...);
  if (result.ec != std::errc()) return Raw("null");
  return Raw(std::string_view(buf, static_cast<size_t>(result.ptr - buf)));
}

JsonWriter& JsonWriter::Int(int64_t value) { return Chars(value); }

JsonWriter& JsonWriter::Uint(uint64_t value) { return Chars(value); }

JsonWriter& JsonWriter::Double(double value) {
  return std::isfinite(value) ? Chars(value) : Raw("null");
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  return std::isfinite(value)
             ? Chars(value, std::chars_format::fixed, decimals)
             : Raw("null");
}

}  // namespace bolton
