// Private to src/campaign: the strict field reader every parser here uses
// (cell specs, results, topologies, campaign requests). A parser walks an
// object's members and dispatches by name; an unmatched name or a wrong
// type is an error (a typo must not hash to a fresh cell key). The first
// failure's message wins.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>

#include "campaign/json.hpp"

namespace conga::campaign::detail {

struct FieldReader {
  std::string& err;
  bool ok = true;

  bool fail(const std::string& what) {
    if (ok) err = what;
    ok = false;
    return false;
  }
};

/// Reads `v` into `out` (bool, string, floating point, or any integer
/// type); a JSON value of the wrong kind fails with "expected <kind> key".
template <typename T>
bool read_field(FieldReader& r, const Json& v, std::string_view key,
                T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return r.fail("expected bool " + std::string(key));
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return r.fail("expected string " + std::string(key));
    out = v.as_string();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number()) return r.fail("expected number " + std::string(key));
    out = v.as_double();
  } else {
    if (!v.is_integer()) return r.fail("expected integer " + std::string(key));
    if constexpr (std::is_unsigned_v<T>) {
      out = static_cast<T>(v.as_uint());
    } else {
      out = static_cast<T>(v.as_int());
    }
  }
  return true;
}

}  // namespace conga::campaign::detail
