// Fixture: one seeded violation per determinism rule, plus negative cases
// (comments, strings, suppressions) that must stay silent. Lines that must
// be diagnosed carry an expect-marker naming the rule; the self-test
// requires findings and markers to agree exactly.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

struct Thing {
  int v = 0;
};

// --- wall-clock -----------------------------------------------------------
inline double now_seconds() {
  auto mono = std::chrono::steady_clock::now();   // expect(wall-clock)
  auto wall = std::chrono::system_clock::now();   // expect(wall-clock)
  (void)mono;
  (void)wall;
  return 0.0;
}

inline void other_clocks() {
  auto file = std::chrono::file_clock::now();               // expect(wall-clock)
  auto fs_now = std::filesystem::file_time_type::clock::now();  // expect(wall-clock)
  auto utc = std::chrono::utc_clock::now();                 // expect(wall-clock)
  auto tai = std::chrono::tai_clock::now();                 // expect(wall-clock)
  auto gps = std::chrono::gps_clock::now();                 // expect(wall-clock)
  (void)file;
  (void)fs_now;
  (void)utc;
  (void)tai;
  (void)gps;
}

inline long posix_time() {
  return std::time(nullptr);  // expect(wall-clock)
}

// --- ambient-rng ----------------------------------------------------------
inline int ambient() {
  std::srand(42);          // expect(ambient-rng)
  int a = std::rand();     // expect(ambient-rng)
  std::random_device rd;   // expect(ambient-rng)
  (void)rd;
  return a;
}

// --- raw-rng-engine / std-shuffle ----------------------------------------
inline void raw_engines(std::vector<int>& v) {
  std::mt19937 gen(1);        // expect(raw-rng-engine)
  std::mt19937_64 gen64(1);   // expect(raw-rng-engine)
  (void)gen64;
  std::shuffle(v.begin(), v.end(), gen);  // expect(std-shuffle)
}

// --- unordered-iter / ptr-keyed-map --------------------------------------
struct Table {
  std::unordered_map<int, Thing> items_;
  std::unordered_set<int> ids_;
  std::map<Thing*, int> by_ptr_;        // expect(ptr-keyed-map)
  std::set<const Thing*> seen_;         // expect(ptr-keyed-map)

  int sum() const {
    int s = 0;
    for (const auto& [k, t] : items_) s += t.v;  // expect(unordered-iter)
    for (int id : ids_) s += id;                 // expect(unordered-iter)
    for (auto it = items_.begin(); it != items_.end(); ++it) {  // expect(unordered-iter)
      s += it->second.v;
    }
    return s;
  }

  int suppressed_sum() const {
    int s = 0;
    // conga-lint: allow(unordered-iter): order-free accumulation (integer
    // addition is commutative); fixture negative case for suppressions.
    for (const auto& [k, t] : items_) s += t.v;
    return s;
  }
};

// --- negatives: none of the below may be diagnosed ------------------------
// Comment mentioning std::mt19937, rand() and steady_clock is stripped.
inline const char* describe() {
  return "calls time() and rand() at runtime";  // string literals stripped
}

inline long digit_separators() { return 1'000'000; }  // not a char literal

inline long runtime_of(int t) { return t; }  // `time` only flags a call

// Ordered map keyed by value: deterministic, fine.
inline int ordered_ok(const std::map<int, Thing>& m) {
  int s = 0;
  for (const auto& [k, t] : m) s += t.v;
  return s;
}

}  // namespace fixture
