#include "net/packet.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace conga::net {

namespace {

// Thread-local free-list pool. Chunked growth keeps the packets themselves
// stable in memory (chunks are never shrunk while the thread lives); the
// free list is a simple LIFO vector, so a release/acquire pair in the steady
// state touches only the hot end of one cache line. Thread-local (rather
// than a locked global) makes the pool safe under the parallel experiment
// runner for free: every worker owns a full simulation, so packets are
// acquired and released on the same thread. The ThreadChecker states that
// confinement as a checkable capability for -Wthread-safety; because the
// pool is thread_local, the sharper runtime hazard is a packet *released on
// the wrong thread* — it lands in the releasing thread's pool while its
// chunk belongs to (and dies with) the allocating thread. Invariant builds
// verify chunk ownership on every release and abort on the first crossing.
class PacketPool {
 public:
  /// Pops a reset packet whose id is this thread's acquisition count: a
  /// per-thread counter, so the packet path writes no shared state.
  Packet* acquire() {
    thread_.check();
    if (free_.empty()) grow();
    Packet* p = free_.back();
    free_.pop_back();
    *p = Packet{};  // trivially-copyable reset
    p->id = ++stats_.acquired;
    return p;
  }

  void release(Packet* p) noexcept {
    thread_.check();
#ifdef CONGA_CHECK_INVARIANTS
    if (!owns(p)) {
      std::fprintf(stderr,
                   "PacketPool: packet %p released on a thread that did not "
                   "allocate it (cross-thread PacketPtr escape)\n",
                   static_cast<void*>(p));
      std::abort();
    }
#endif
    ++stats_.released;
    free_.push_back(p);
  }

  PacketPoolStats stats() const {
    thread_.check();
    PacketPoolStats s = stats_;
    s.free_size = free_.size();
    return s;
  }

 private:
  static constexpr std::size_t kChunkPackets = 256;

#ifdef CONGA_CHECK_INVARIANTS
  bool owns(const Packet* p) const CONGA_REQUIRES(thread_) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    for (const auto& chunk : chunks_) {
      const auto base = reinterpret_cast<std::uintptr_t>(chunk.get());
      if (addr >= base && addr < base + kChunkPackets * sizeof(Packet)) {
        return true;
      }
    }
    return false;
  }
#endif

  void grow() CONGA_REQUIRES(thread_) {
    ++stats_.chunk_allocs;
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
    Packet* base = chunks_.back().get();
    free_.reserve(free_.size() + kChunkPackets);
    for (std::size_t i = 0; i < kChunkPackets; ++i) free_.push_back(base + i);
  }

  core::ThreadChecker thread_;
  std::vector<std::unique_ptr<Packet[]>> chunks_ CONGA_GUARDED_BY(thread_);
  std::vector<Packet*> free_ CONGA_GUARDED_BY(thread_);
  PacketPoolStats stats_ CONGA_GUARDED_BY(thread_);
};

PacketPool& thread_pool() {
  thread_local PacketPool pool;
  return pool;
}

}  // namespace

void PacketDeleter::operator()(Packet* p) const noexcept {
  thread_pool().release(p);
}

PacketPtr make_packet() { return PacketPtr(thread_pool().acquire()); }

PacketPoolStats packet_pool_stats() { return thread_pool().stats(); }

}  // namespace conga::net
