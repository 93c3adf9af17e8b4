#ifndef ENTMATCHER_COMMON_JSON_H_
#define ENTMATCHER_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace entmatcher {

/// A minimal JSON document model and the one JSON writer: the shard-plan
/// file, every status reply (`stats`, `health`, `shards`, `hello`), bench
/// reports, and tests that assert on JSON fields all go through it.
/// Deliberately dependency-free.
///
/// Supported: null, booleans, numbers (stored as int64 when the literal is
/// integral, double otherwise), strings with the standard escapes (\uXXXX
/// is decoded to UTF-8), arrays, and objects. Object member order is not
/// preserved (std::map keeps keys sorted) — fine for config and telemetry,
/// not a general-purpose round-tripper.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(int64_t value) : kind_(Kind::kInt), int_(value) {}
  JsonValue(int value) : kind_(Kind::kInt), int_(value) {}
  JsonValue(uint64_t value)
      : kind_(Kind::kInt), int_(static_cast<int64_t>(value)) {}
  JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}
  JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}
  JsonValue(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
  JsonValue(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  /// Integral view of a number (truncates a double).
  int64_t AsInt() const {
    return kind_ == Kind::kDouble ? static_cast<int64_t>(double_) : int_;
  }
  double AsDouble() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Object member for writing, inserted as null when absent. A value that
  /// is not an object becomes an empty object first.
  JsonValue& operator[](const std::string& key);

  /// Typed object accessors for config parsing: kInvalidArgument naming the
  /// missing/mistyped key, so plan errors point at the offending field.
  Result<int64_t> GetInt(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  /// Missing key yields `fallback` (mistyped still errors).
  Result<std::string> GetStringOr(const std::string& key,
                                  const std::string& fallback) const;
  Result<const Array*> GetArray(const std::string& key) const;

  /// Serializes the value as compact JSON, object keys sorted. Doubles print
  /// in the shortest form that parses back to the same value
  /// (std::to_chars); non-finite doubles render as null.
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_COMMON_JSON_H_
