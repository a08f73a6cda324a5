// Host clock for the benchmark. Every timing the benchmark reports is host
// time read here; simulated time never comes from this clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic host time in nanoseconds.
inline std::int64_t host_ns() {
  // conga-lint: allow(wall-clock): the benchmark measures host time by design
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

}  // namespace perfbench
