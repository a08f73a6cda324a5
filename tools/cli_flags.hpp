// Strict numeric flag values for the command-line tools: the whole string
// must be one number that fits the destination, so "2x", "abc", "2.9" for
// an integer flag or "-1" for an unsigned one are errors instead of being
// read as 2, 0, 2 or 2^64 - 1.
//
// FlagReader is the one parse loop of the command-line tools (conga_sim,
// determinism_audit, chaos_audit, conga_trace, conga_serve).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/experiment_spec.hpp"

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

/// `text` cut at every `sep`; empty pieces are kept.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  for (std::size_t cut; (cut = text.find(sep, pos)) != std::string::npos;
       pos = cut + 1) {
    parts.push_back(text.substr(pos, cut - pos));
  }
  parts.push_back(text.substr(pos));
  return parts;
}

/// Reports an error and exits; must not return.
using Usage = void (*)(const char*);

/// Walks the flags after argv[0] one at a time. A missing value, a
/// malformed number and an unknown flag ("unknown <kind>flag: <flag>") go
/// to `usage`.
class FlagReader {
 public:
  FlagReader(int argc, char** argv, Usage usage, std::string kind = "")
      : argc_(argc), argv_(argv), usage_(usage), kind_(std::move(kind)) {}

  /// Calls `on(flag)` for each flag in argv order. The handler takes the
  /// flag's value through text(), number() or list() and returns false for
  /// a flag it does not know.
  template <class OnFlag>
  void each(OnFlag on) {
    while (++i_ < argc_) {
      flag_ = argv_[i_];
      if (!on(flag_)) fail("unknown " + kind_ + "flag: " + flag_);
    }
  }

  /// The current flag's value.
  std::string text() {
    if (i_ + 1 >= argc_) fail("flag needs a value");
    return argv_[++i_];
  }

  /// The value as one number of type T that is at least `min`.
  template <class T>
  T number(std::type_identity_t<T> min = std::numeric_limits<T>::lowest()) {
    const std::string value = text();
    T out{};
    bool ok = false;
    if constexpr (std::is_floating_point_v<T>) {
      ok = parse_double_flag(value, out);
    } else {
      ok = parse_int_flag(value, std::numeric_limits<T>::min(), out);
    }
    if (!ok) fail(flag_ + " wants a number, got '" + value + "'");
    if (out < min) fail(flag_ + " must be >= " + bound_text(min));
    return out;
  }

  /// The value split at commas.
  std::vector<std::string> list() { return split(text(), ','); }

 private:
  /// A bound as the user would type it: "0", not "0.000000".
  template <class T>
  static std::string bound_text(T bound) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(bound));
      return buf;
    } else {
      return std::to_string(bound);
    }
  }

  [[noreturn]] void fail(const std::string& msg) const {
    usage_(msg.c_str());
    std::abort();
  }

  int argc_;
  char** argv_;
  Usage usage_;
  std::string kind_;
  int i_ = 0;
  std::string flag_;
};

/// Fabric seed `seed` and the traffic seed every tool derives from it.
inline void set_seed(campaign::ExperimentSpec& spec, std::uint64_t seed) {
  spec.fabric_seed = seed;
  spec.traffic_seed = seed * 31 + 7;
}

/// The cell flags conga_sim, determinism_audit and chaos_audit share:
/// --seed, --load, --hosts, --warmup-ms and --duration-ms, written into
/// `spec`. False for any other flag.
inline bool cell_flag(FlagReader& args, const std::string& flag,
                      campaign::ExperimentSpec& spec) {
  if (flag == "--seed") {
    set_seed(spec, args.number<std::uint64_t>());
  } else if (flag == "--load") {
    spec.load = args.number<double>();
  } else if (flag == "--hosts") {
    spec.topo.hosts_per_leaf = args.number<int>();
  } else if (flag == "--warmup-ms") {
    spec.warmup_ns = sim::milliseconds(args.number<int>());
  } else if (flag == "--duration-ms") {
    spec.measure_ns = sim::milliseconds(args.number<int>());
  } else {
    return false;
  }
  return true;
}

/// The spec as a runnable config; a spec that does not resolve is a usage
/// error carrying the spec's own message.
inline workload::ExperimentConfig resolve(
    const campaign::ExperimentSpec& spec, Usage usage) {
  workload::ExperimentConfig cfg;
  std::string err;
  if (!campaign::to_experiment_config(spec, cfg, err)) usage(err.c_str());
  return cfg;
}

}  // namespace conga::tools
