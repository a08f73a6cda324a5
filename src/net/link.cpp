#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace conga::net {

Link::Link(sim::Scheduler& sched, std::string name, const LinkConfig& cfg)
    : sched_(sched),
      target_(sched.add_target(this)),
      cfg_(cfg),
      queue_(cfg.queue_capacity_bytes, cfg.ecn_threshold_bytes,
             cfg.shared_pool),
      dre_(cfg.dre, cfg.rate_bps),
      name_(std::move(name)) {
  queue_.set_label(name_);
  dre_.set_label(name_);
}

Link::~Link() {
  while (wire_head_ != nullptr) {
    PacketPtr pkt(wire_head_);
    wire_head_ = pkt->queue_next;
  }
}

void Link::connect_to(Node* dst, int dst_port) {
  dst_ = dst;
  dst_port_ = dst_port;
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  telemetry::emit(tele_,
                  up ? telemetry::EventType::kLinkUp
                     : telemetry::EventType::kLinkDown,
                  tele_comp_, sched_.now(), up ? 1 : 0);
}

void Link::set_rate_scale(double scale) {
  if (scale == rate_scale_) return;
  rate_scale_ = scale;
  dre_.set_rate_scale(scale);
  telemetry::emit(tele_, telemetry::EventType::kLinkDegraded, tele_comp_,
                  sched_.now(),
                  static_cast<std::uint64_t>(std::llround(scale * 1000.0)));
}

void Link::set_gray_failure(double drop_prob, double corrupt_prob,
                            std::uint64_t seed) {
  gray_drop_prob_ = drop_prob;
  gray_corrupt_prob_ = corrupt_prob;
  gray_rng_ = std::make_unique<sim::Rng>(seed);
}

void Link::attach_telemetry(telemetry::TraceSink* sink) {
  tele_ = sink;
  tele_comp_ = sink != nullptr ? sink->intern_component(name_) : 0;
  queue_.set_telemetry(sink, tele_comp_);
  dre_.set_telemetry(sink, tele_comp_);
}

void Link::send(PacketPtr pkt) {
  assert(dst_ != nullptr && "link not connected");
  ++packets_offered_;
  if (!up_) {  // black-hole on a failed link
    ++drop_stats_.admin_down_pkts;
    drop_stats_.admin_down_bytes += pkt->size_bytes;
    telemetry::emit(tele_, telemetry::EventType::kLinkDropAdminDown,
                    tele_comp_, sched_.now(), pkt->size_bytes);
    return;
  }
  if (gray_drop_prob_ > 0.0 && gray_rng_->chance(gray_drop_prob_)) {
    ++drop_stats_.gray_pkts;
    drop_stats_.gray_bytes += pkt->size_bytes;
    telemetry::emit(
        tele_, telemetry::EventType::kLinkDropGray, tele_comp_, sched_.now(),
        pkt->size_bytes,
        static_cast<std::uint64_t>(std::llround(gray_drop_prob_ * 1e6)));
    return;
  }
  if (gray_corrupt_prob_ > 0.0 && gray_rng_->chance(gray_corrupt_prob_)) {
    // Bit error on the wire: the packet still occupies the link (charges the
    // DRE, accumulates CE) but the far end discards it on receipt.
    pkt->corrupted = true;
  }
  if (!queue_.enqueue(std::move(pkt), sched_.now())) return;  // tail drop
  // The wire is free once dispatch has passed busy_until_ (the queue was
  // then empty before this packet), so it starts at once. Otherwise the
  // first packet to queue behind the wire schedules the drain.
  if (sched_.passed(busy_until_)) {
    start_transmission();
  } else if (queue_.packets() == 1) {
    schedule_drain();
  }
}

void Link::schedule_drain() {
  // The wire-free instant becomes a real event at exactly the position its
  // ticket reserved, so ties with other events break as if it always was.
  sched_.post(busy_until_, target_, kDrain);
}

void Link::on_event(std::uint32_t tag) {
  if (tag == kDrain) {
    start_transmission();
    return;
  }
  // Arrivals fire in transmission order, so this one is the wire head's.
  PacketPtr p(wire_head_);
  wire_head_ = p->queue_next;
  if (wire_head_ == nullptr) wire_tail_ = nullptr;
  p->queue_next = nullptr;
  --in_flight_pkts_;
  if (p->corrupted) {
    ++drop_stats_.corrupt_pkts;
    drop_stats_.corrupt_bytes += p->size_bytes;
    telemetry::emit(tele_, telemetry::EventType::kLinkDropCorrupt, tele_comp_,
                    sched_.now(), p->size_bytes);
    return;
  }
  ++packets_delivered_;
  dst_->receive(std::move(p), dst_port_);
}

void Link::start_transmission() {
  PacketPtr pkt = queue_.dequeue(sched_.now());
  if (!pkt) return;

  const sim::TimeNs now = sched_.now();
  dre_.add(pkt->size_bytes, now);
  if (cfg_.marks_ce && pkt->overlay.valid && !ce_suppressed_) {
    const std::uint8_t q = dre_.quantized(now);
    if (cfg_.ce_sum) {
      pkt->overlay.ce = static_cast<std::uint8_t>(
          std::min<int>(pkt->overlay.ce + q, dre_.max_metric()));
    } else {
      pkt->overlay.ce = std::max(pkt->overlay.ce, q);
    }
  }

  bytes_sent_ += pkt->size_bytes;
  ++packets_sent_;
  ++in_flight_pkts_;

  const sim::TimeNs ser = serialization_delay(pkt->size_bytes);
  // Wire free after serialization: a ticket, which becomes a drain event
  // only while packets wait behind this one.
  busy_until_ = sched_.reserve_at(now + ser);
  if (!queue_.empty()) schedule_drain();
  // Far end sees the packet after serialization + propagation. The next
  // packet starts no earlier than busy_until_ and the delay is constant, so
  // it cannot arrive first: the wire stays in arrival order.
  Packet* const p = pkt.release();  // dequeue() left queue_next null
  (wire_tail_ != nullptr ? wire_tail_->queue_next : wire_head_) = p;
  wire_tail_ = p;
  sched_.post_at(now + ser + cfg_.propagation_delay, target_, kArrive);
}

}  // namespace conga::net
