#include "net/queue.hpp"

#include <algorithm>

#include "debug/invariants.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::net {

DropTailQueue::~DropTailQueue() {
  while (head_ != nullptr) {
    PacketPtr pkt(head_);
    head_ = pkt->queue_next;
  }
}

void DropTailQueue::account(sim::TimeNs now) {
  byte_time_integral_ +=
      static_cast<double>(bytes_) * static_cast<double>(now - last_change_);
  last_change_ = now;
}

bool DropTailQueue::enqueue(PacketPtr pkt, sim::TimeNs now) {
  bool admit = bytes_ + pkt->size_bytes <= capacity_bytes_;
  if (admit && pool_ != nullptr) {
    admit = bytes_ + pkt->size_bytes <= pool_->dynamic_limit();
  }
  if (!admit) {
    ++stats_.dropped_pkts;
    stats_.dropped_bytes += pkt->size_bytes;
    telemetry::emit(tele_, telemetry::EventType::kQueueDrop, tele_comp_, now,
                    pkt->size_bytes, bytes_);
    return false;  // pkt freed here
  }
  if (pool_ != nullptr) pool_->reserve(pkt->size_bytes);
  account(now);
  if (ecn_threshold_bytes_ > 0 && bytes_ > ecn_threshold_bytes_) {
    pkt->ecn_ce = true;
    ++stats_.ecn_marked_pkts;
    telemetry::emit(tele_, telemetry::EventType::kQueueEcnMark, tele_comp_,
                    now, pkt->size_bytes, bytes_);
  }
  bytes_ += pkt->size_bytes;
  ++stats_.enqueued_pkts;
  stats_.enqueued_bytes += pkt->size_bytes;
  stats_.max_bytes_seen = std::max(stats_.max_bytes_seen, bytes_);
  pkt->enqueued_at = now;
  telemetry::emit(tele_, telemetry::EventType::kQueueEnqueue, tele_comp_, now,
                  pkt->size_bytes, bytes_);
  Packet* const p = pkt.release();
  p->queue_next = nullptr;
  (tail_ != nullptr ? tail_->queue_next : head_) = p;
  tail_ = p;
  ++packets_;
  CONGA_INVARIANT(check_queue_bounds(label_, now, bytes_, capacity_bytes_,
                                     packets_));
  CONGA_INVARIANT(check_byte_conservation(label_, now, stats_.enqueued_bytes,
                                          stats_.dequeued_bytes, bytes_));
  return true;
}

PacketPtr DropTailQueue::dequeue(sim::TimeNs now) {
  if (head_ == nullptr) return nullptr;
  account(now);
  PacketPtr pkt(head_);
  head_ = pkt->queue_next;
  pkt->queue_next = nullptr;
  if (head_ == nullptr) {
    tail_ = nullptr;
  } else {
    // The next dequeue reads the new head; start loading it now.
    __builtin_prefetch(head_);
  }
  --packets_;
  bytes_ -= pkt->size_bytes;
  ++stats_.dequeued_pkts;
  stats_.dequeued_bytes += pkt->size_bytes;
  if (pool_ != nullptr) pool_->release(pkt->size_bytes);
  telemetry::emit(tele_, telemetry::EventType::kQueueDequeue, tele_comp_, now,
                  pkt->size_bytes, bytes_);
  CONGA_INVARIANT(check_queue_bounds(label_, now, bytes_, capacity_bytes_,
                                     packets_));
  CONGA_INVARIANT(check_byte_conservation(label_, now, stats_.enqueued_bytes,
                                          stats_.dequeued_bytes, bytes_));
  return pkt;
}

double DropTailQueue::time_avg_bytes(sim::TimeNs now) const {
  if (now <= 0) return 0.0;
  const double integral =
      byte_time_integral_ +
      static_cast<double>(bytes_) * static_cast<double>(now - last_change_);
  return integral / static_cast<double>(now);
}

}  // namespace conga::net
