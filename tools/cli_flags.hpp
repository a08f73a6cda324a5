// Strict numeric flag values for the command-line tools: the whole string
// must be one number that fits the destination, so "2x", "abc", "2.9" for
// an integer flag or "-1" for an unsigned one are errors instead of being
// read as 2, 0, 2 or 2^64 - 1.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace conga::tools {

/// Parses all of `text` as a base-10 integer of type T that is at least
/// `min_value`; false on empty input, trailing junk, overflow or a value
/// below the minimum.
template <class T>
bool parse_int_flag(const std::string& text,
                    std::type_identity_t<T> min_value, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < min_value) return false;
  out = value;
  return true;
}

/// Parses all of `text` as a finite decimal number.
inline bool parse_double_flag(const std::string& text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

/// Reads the value after flag argv[i] into `out` and advances i; a
/// missing or malformed value calls `usage`, which must not return.
template <class T>
void number_flag(int argc, char** argv, int& i, T& out,
                 void (*usage)(const char*)) {
  const std::string flag = argv[i];
  if (i + 1 >= argc) {
    usage("flag needs a value");
    return;
  }
  const std::string value = argv[++i];
  bool ok = false;
  if constexpr (std::is_floating_point_v<T>) {
    ok = parse_double_flag(value, out);
  } else {
    ok = parse_int_flag(value, std::numeric_limits<T>::min(), out);
  }
  if (!ok) {
    usage((flag + " wants a number, got '" + value + "'").c_str());
  }
}

}  // namespace conga::tools
