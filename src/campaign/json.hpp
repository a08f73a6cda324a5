// Minimal JSON document model for the campaign service.
//
// The cache keys of the content-addressed result store are hashes of
// *canonical* JSON bytes, so the campaign layer needs its own JSON that can
// (a) parse a request or stored entry whose fields arrive in any order, and
// (b) re-serialize it into one deterministic byte sequence. The writer is
// canonical by construction: object keys are emitted in the order the caller
// inserted them (spec serializers use one fixed order), integers print as
// plain decimal, and doubles print via std::to_chars shortest-round-trip
// form, so value-preserving parse -> dump cycles are byte-stable.
//
// Deliberately small: objects, arrays, strings, bools, null, and numbers
// split into signed/unsigned integer vs double (a cache key must not change
// because 7 was reparsed as 7.0). No external dependency — the container
// bakes in only gtest/benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace conga::campaign {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool,
    kInt,     ///< fits std::int64_t, written without decimal point
    kUint,    ///< > INT64_MAX, written without decimal point
    kDouble,  ///< everything else numeric
    kString,
    kArray,
    kObject,
  };

  Json() = default;
  static Json boolean(bool b);
  static Json integer(std::int64_t v);
  static Json uinteger(std::uint64_t v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_integer() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// Numeric accessors convert between the three numeric kinds.
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return str_; }

  // Arrays.
  const std::vector<Json>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  const Json& at(std::size_t i) const { return items_[i]; }
  Json& push_back(Json v);

  // Objects: insertion-ordered key/value pairs (canonical serializers rely
  // on controlling the order; lookups are linear, specs are small).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  /// Value for `key`, or nullptr when absent.
  const Json* find(const std::string& key) const;
  /// Appends (no duplicate check — serializers own the key discipline).
  Json& set(std::string key, Json v);

  /// Canonical compact form: no whitespace, fixed member order.
  std::string dump() const;
  /// Two-space indented form for human-facing report files. Same bytes for
  /// the same document — only the whitespace differs from dump().
  std::string dump_pretty() const;

  /// Parses `text` (strict JSON, UTF-8 passthrough). Returns false and sets
  /// `err` (with a byte offset) on malformed input or trailing garbage.
  static bool parse(const std::string& text, Json& out, std::string& err);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double dbl_ = 0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// 64-bit FNV-1a over a byte string — the store's payload digest primitive.
std::uint64_t fnv1a64(const std::string& bytes);

/// Fixed-width lowercase hex of a 64-bit value (16 chars).
std::string hex64(std::uint64_t v);

}  // namespace conga::campaign
