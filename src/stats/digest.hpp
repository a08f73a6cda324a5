// Run digests for the determinism auditor.
//
// Two complementary hashes over a simulation run:
//  * TraceDigest — order-SENSITIVE streaming hash; fed the dispatch stream
//    (time, event id) it fingerprints the exact interleaving of the run, so
//    any hidden dependence on wall clock, pointer order, or
//    unordered-container iteration shows up as a different digest.
//  * UnorderedDigest — order-INSENSITIVE accumulator (commutative sum + xor
//    of mixed values); fed per-flow FCT records it fingerprints the *results*
//    regardless of completion order, separating "same outcome, different
//    schedule" from "different outcome".
//
// Both are cheap enough to leave on in CI runs and deterministic across
// platforms (pure 64-bit integer arithmetic; doubles are hashed by bit
// pattern).
#pragma once

#include <bit>
#include <cstdint>

#include "sim/hash.hpp"

namespace conga::stats {

/// Hashes a double by bit pattern (bit-identical results hash identically;
/// any numeric drift changes the digest). Normalises -0.0 to 0.0 so the two
/// representations of zero cannot split a digest.
inline std::uint64_t hash_double(double d) {
  if (d == 0.0) d = 0.0;  // collapse -0.0
  return sim::mix64(std::bit_cast<std::uint64_t>(d));
}

/// Order-sensitive streaming digest (mix-and-fold chain over 64-bit words).
class TraceDigest {
 public:
  void add(std::uint64_t v) {
    h_ = sim::mix64(h_ ^ sim::mix64(v + kGamma));
    ++words_;
  }

  /// Final value; folds the word count in so a truncated stream with a
  /// colliding prefix still differs.
  std::uint64_t value() const { return sim::mix64(h_ ^ words_); }
  std::uint64_t words() const { return words_; }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis as a seed
  std::uint64_t words_ = 0;
};

/// Order-insensitive accumulator: items may arrive in any order and produce
/// the same digest. Keeps both a wrapping sum and an xor of the mixed items
/// (either alone admits easy collisions; together they are robust for audit
/// purposes) plus the count.
class UnorderedDigest {
 public:
  void add(std::uint64_t item_hash) {
    const std::uint64_t m = sim::mix64(item_hash);
    sum_ += m;
    xor_ ^= m;
    ++count_;
  }

  std::uint64_t value() const {
    return sim::mix64(sum_ ^ sim::mix64(xor_ ^ count_));
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::uint64_t count_ = 0;
};

class FctCollector;

/// Order-insensitive digest over a collector's flow records
/// (size, fct, optimal_fct per flow).
std::uint64_t fct_digest(const FctCollector& collector);

}  // namespace conga::stats
