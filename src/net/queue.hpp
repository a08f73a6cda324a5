// Drop-tail byte-bounded FIFO queue with occupancy statistics.
//
// One queue sits at the egress of every link (the standard output-queued
// switch model). Statistics support the paper's queue-occupancy results:
// Fig 11(c) needs an occupancy CDF at a hotspot port, Fig 16 needs the
// time-averaged occupancy of every fabric port.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::net {

struct QueueStats {
  std::uint64_t enqueued_pkts = 0;
  std::uint64_t enqueued_bytes = 0;
  std::uint64_t dequeued_pkts = 0;
  std::uint64_t dequeued_bytes = 0;
  std::uint64_t dropped_pkts = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t ecn_marked_pkts = 0;
  std::uint64_t max_bytes_seen = 0;
};

/// Shared packet-buffer pool with dynamic per-queue thresholds — the
/// admission scheme of real switch ASICs (and of the paper's testbed
/// switches): a queue may grow while its occupancy stays below
/// alpha * (free pool), so a single hot port can absorb most of the memory,
/// but many simultaneously hot ports squeeze each other.
class SharedBufferPool {
 public:
  SharedBufferPool(std::uint64_t total_bytes, double alpha)
      : total_(total_bytes), alpha_(alpha) {}

  /// Admission limit for a queue currently using `queue_bytes`.
  std::uint64_t dynamic_limit() const {
    const std::uint64_t free_bytes = total_ > used_ ? total_ - used_ : 0;
    return static_cast<std::uint64_t>(alpha_ *
                                      static_cast<double>(free_bytes));
  }
  void reserve(std::uint64_t bytes) { used_ += bytes; }
  void release(std::uint64_t bytes) { used_ -= bytes; }
  std::uint64_t used() const { return used_; }
  std::uint64_t total() const { return total_; }

 private:
  std::uint64_t total_;
  double alpha_;
  std::uint64_t used_ = 0;
};

/// An intrusive FIFO: resident packets are linked head to tail through
/// `Packet::queue_next`, so the queue itself is three words and never grows,
/// and a dequeue touches only the packet it returns (prefetching the next).
/// The queue owns its resident packets and returns any left at destruction
/// to the packet pool.
class DropTailQueue {
 public:
  /// `ecn_threshold_bytes`: packets enqueued while the occupancy exceeds
  /// this get the CE mark (DCTCP-style instantaneous-threshold marking);
  /// 0 disables ECN. `pool`: optional switch-level shared buffer; when set,
  /// admission also requires occupancy < the pool's dynamic limit.
  explicit DropTailQueue(std::uint64_t capacity_bytes,
                         std::uint64_t ecn_threshold_bytes = 0,
                         SharedBufferPool* pool = nullptr)
      : capacity_bytes_(capacity_bytes),
        ecn_threshold_bytes_(ecn_threshold_bytes),
        pool_(pool) {}
  ~DropTailQueue();
  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  /// Attempts to enqueue; on overflow the packet is dropped (freed) and
  /// false is returned.
  bool enqueue(PacketPtr pkt, sim::TimeNs now);

  /// Pops the head, or nullptr if empty.
  PacketPtr dequeue(sim::TimeNs now);

  /// Names this queue in invariant-violation reports (the owning link's
  /// name); optional, defaults to "queue".
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// Routes enqueue/dequeue/drop/ECN events to `sink` under component
  /// `comp` (normally the owning link's interned name). nullptr detaches.
  void set_telemetry(telemetry::TraceSink* sink, std::uint32_t comp) {
    tele_ = sink;
    tele_comp_ = comp;
  }

  bool empty() const { return head_ == nullptr; }
  std::uint64_t bytes() const { return bytes_; }
  std::size_t packets() const { return packets_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  const QueueStats& stats() const { return stats_; }

  /// Time-average occupancy in bytes over [0, now].
  double time_avg_bytes(sim::TimeNs now) const;

 private:
  void account(sim::TimeNs now);

  std::uint64_t capacity_bytes_;
  std::uint64_t ecn_threshold_bytes_;
  SharedBufferPool* pool_;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
  std::string label_ = "queue";
  std::uint64_t bytes_ = 0;
  Packet* head_ = nullptr;  ///< owned, like every packet linked behind it
  Packet* tail_ = nullptr;
  std::size_t packets_ = 0;
  QueueStats stats_;
  // Integral of occupancy over time, for time-averaged queue length.
  double byte_time_integral_ = 0.0;
  sim::TimeNs last_change_ = 0;
};

}  // namespace conga::net
