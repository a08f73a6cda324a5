#include "reference.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "clock.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct Event {
  std::uint64_t time;
  std::uint32_t slot;
  friend bool operator>(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.slot > b.slot;
  }
};

/// One pass, timed on the calling thread; negative when its memory cannot be
/// mapped.
double one_pass() {
  constexpr std::uint32_t kSlots = 1U << 20;  // 8 MiB of counters
  constexpr std::uint32_t kPending = 4096;
  constexpr int kEvents = 1 << 20;
  constexpr std::greater<> kEarliestFirst;

  // Mapped directly, not through malloc: freeing an 8 MiB malloc block
  // raises malloc's mmap threshold, and every repetition forked afterwards
  // would inherit that allocator state and a larger peak RSS.
  const std::size_t bytes =
      kSlots * sizeof(std::uint64_t) + kPending * sizeof(Event);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return -1;
  std::uint64_t* table = static_cast<std::uint64_t*>(mem);
  Event* heap = reinterpret_cast<Event*>(table + kSlots);
  std::fill(table, table + kSlots, 1);
  for (std::uint32_t i = 0; i < kPending; ++i) {
    heap[i] = {mix(i) & 0xffff,
               static_cast<std::uint32_t>(mix(~i)) & (kSlots - 1)};
    std::push_heap(heap, heap + i + 1, kEarliestFirst);
  }

  const std::int64_t t0 = host_ns();
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap, heap + kPending, kEarliestFirst);
    Event& e = heap[kPending - 1];
    std::uint64_t& v = table[e.slot];
    v = mix(v + e.time);
    if ((v & 3) == 0) {
      ++table[(e.slot ^ static_cast<std::uint32_t>(v >> 20)) & (kSlots - 1)];
    }
    e = {e.time + 1 + (v & 1023),
         static_cast<std::uint32_t>(v >> 40) & (kSlots - 1)};
    std::push_heap(heap, heap + kPending, kEarliestFirst);
  }
  const double s = seconds_between(t0, host_ns());
  // Keep the loop's result observable so it is not optimised away.
  volatile std::uint64_t sink = table[heap[0].slot];
  (void)sink;
  ::munmap(mem, bytes);
  return s;
}

}  // namespace

double reference_seconds(int threads) {
  std::vector<double> secs(static_cast<std::size_t>(std::max(threads, 1)));
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < secs.size(); ++i) {
    others.emplace_back([&secs, i] { secs[i] = one_pass(); });
  }
  secs[0] = one_pass();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (const double s : secs) {
    if (s < 0) throw std::runtime_error("reference: mmap failed");
    sum += s;
  }
  return sum / static_cast<double>(secs.size());
}

}  // namespace perfbench
