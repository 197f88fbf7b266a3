// Minimal JSON value model: parse, navigate, serialize.
//
// Self-contained (no third-party dependency) and deliberately small: exactly
// what the versioned system/result serializers (io/system_json.hpp) and the
// admission service's JSONL request stream (service/) need.
//
//   * Objects preserve insertion order and reject duplicate keys on parse.
//   * Numbers are IEEE doubles, written as the bytes of C-locale printf %g
//     at precision 17, via std::to_chars (util/number_format.hpp), so
//     doubles round-trip bit-exactly through dump() -> parse(). Parsing is
//     locale-free: a strict grammar check, then std::from_chars.
//   * parse() never throws; errors carry a byte offset.
//   * No Infinity/NaN literals (JSON has none); callers encode unbounded
//     times as the string "inf" (see io/system_json.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rta::json {

/// One JSON value (tagged union over the seven JSON shapes).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  /// Insertion-ordered; keys unique (enforced by the parser, by set()).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(double n) : kind_(Kind::kNumber), num_(n) {}  // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(std::string s)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), str_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; only valid for the matching kind.
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const { return arr_; }
  [[nodiscard]] const Object& as_object() const { return obj_; }
  [[nodiscard]] Array& as_array() { return arr_; }
  [[nodiscard]] Object& as_object() { return obj_; }

  /// Object member by key, or nullptr (also nullptr on non-objects).
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Insert or overwrite an object member (turns a null value into an
  /// object; other kinds are an error guarded by assert).
  void set(const std::string& key, Value v);

  /// Serialize. indent < 0: compact one-liner; otherwise pretty-printed
  /// with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Append the compact dump() bytes to `out` (no temporary string).
  void dump_append(std::string& out) const { dump_into(out, -1, 0); }

 private:
  void dump_into(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Outcome of a parse: a value or a diagnostic with a byte offset.
struct ParseResult {
  bool ok = false;
  std::string error;  ///< "offset N: message" when !ok
  Value value;
};

/// Parse one JSON document; trailing non-whitespace is an error.
[[nodiscard]] ParseResult parse(const std::string& text);

/// Largest id a JSON number carries exactly (2^53).
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;
inline constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// `v` as an integer in [lo, hi]; nullopt when it is not a number, has a
/// fractional part, or lies outside the range. The one checked path from a
/// JSON number to an integer field: a bare cast would truncate fractions
/// and is undefined out of range.
[[nodiscard]] std::optional<std::int64_t> checked_integer(const Value& v,
                                                          std::int64_t lo,
                                                          std::int64_t hi);

}  // namespace rta::json
