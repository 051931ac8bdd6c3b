// Minimal JSON value type with a recursive-descent parser and a canonical
// compact serializer. Used by the experiment engine (src/engine) for stable
// spec/result encoding: the serialized form of a Value built by our encoders
// is deterministic (objects keep insertion order, numbers print either as
// integers or with enough digits to round-trip a double exactly), so it can
// be hashed for content addressing and compared for bit-identity.
//
// Deliberately small: objects, arrays, strings, finite doubles, bools, null.
// No external dependencies.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace alge::json {

/// Thrown on malformed input (parse) or type-mismatched access.
class json_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  using Array = std::vector<Value>;
  /// Insertion-ordered: serialization is deterministic for encoder-built
  /// objects, which is what the engine's content hashing relies on.
  using Object = std::vector<std::pair<std::string, Value>>;

  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(long long i) : v_(static_cast<double>(i)) {}
  Value(std::size_t i) : v_(static_cast<double>(i)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(const char* s) : v_(std::string(s)) {}

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;

  /// Append an element (requires an array value).
  Value& push_back(Value v);

  /// Set a member (requires an object value): replaces an existing key's
  /// value in place, keeping its position, or appends a new key.
  Value& set(std::string key, Value v);

  /// Pointer to a member, or nullptr (requires an object value).
  const Value* find(std::string_view key) const;
  /// Member access that throws json_error when the key is absent.
  const Value& at(std::string_view key) const;

  /// Compact canonical serialization (no whitespace).
  std::string dump() const;

  bool operator==(const Value& o) const = default;

 private:
  explicit Value(Array a) : v_(std::move(a)) {}
  explicit Value(Object o) : v_(std::move(o)) {}

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parse a complete JSON document; trailing non-whitespace and a key
/// repeated within one object are errors.
Value parse(std::string_view text);

}  // namespace alge::json
