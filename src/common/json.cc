#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace entmatcher {
namespace {

/// Recursive-descent parser over a string_view. Depth is capped so a
/// pathological plan file cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status(StatusCode::kInvalidArgument,
                    "json: trailing characters at offset " +
                        std::to_string(pos_));
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status(StatusCode::kInvalidArgument,
                  "json: " + message + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue(std::move(s).value());
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      members[std::move(key).value()] = std::move(value).value();
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue::Array elements;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(elements));
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      elements.push_back(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(elements));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          auto cp = ParseHex4();
          if (!cp.ok()) return cp.status();
          uint32_t code = cp.value();
          // Surrogate pair: a high surrogate must be followed by \uDC00..DFFF.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!ConsumeLiteral("\\u")) return Error("unpaired surrogate");
            auto low = ParseHex4();
            if (!low.ok()) return low.status();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low.value() - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<uint32_t>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {}
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue(static_cast<int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    return JsonValue(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Appends `text` as a JSON string literal, quotes included.
void AppendEscaped(std::string_view text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      break;
    case JsonValue::Kind::kBool:
      out->append(value.AsBool() ? "true" : "false");
      break;
    case JsonValue::Kind::kInt:
      out->append(std::to_string(value.AsInt()));
      break;
    case JsonValue::Kind::kDouble: {
      double d = value.AsDouble();
      if (!std::isfinite(d)) {
        out->append("null");
        break;
      }
      char buf[32];
      const std::to_chars_result printed =
          std::to_chars(buf, buf + sizeof(buf), d);
      out->append(buf, printed.ptr);
      break;
    }
    case JsonValue::Kind::kString:
      AppendEscaped(value.AsString(), out);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& element : value.AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(element, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        DumpTo(member, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ != Kind::kObject) *this = JsonValue(Object());
  return object_[key];
}

Result<int64_t> JsonValue::GetInt(const std::string& key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_int()) {
    return Status(StatusCode::kInvalidArgument,
                  "json: missing or non-integer field \"" + key + "\"");
  }
  return member->AsInt();
}

Result<std::string> JsonValue::GetString(const std::string& key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_string()) {
    return Status(StatusCode::kInvalidArgument,
                  "json: missing or non-string field \"" + key + "\"");
  }
  return member->AsString();
}

Result<std::string> JsonValue::GetStringOr(const std::string& key,
                                           const std::string& fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr) return fallback;
  if (!member->is_string()) {
    return Status(StatusCode::kInvalidArgument,
                  "json: non-string field \"" + key + "\"");
  }
  return member->AsString();
}

Result<const JsonValue::Array*> JsonValue::GetArray(
    const std::string& key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_array()) {
    return Status(StatusCode::kInvalidArgument,
                  "json: missing or non-array field \"" + key + "\"");
  }
  return &member->AsArray();
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

}  // namespace entmatcher
