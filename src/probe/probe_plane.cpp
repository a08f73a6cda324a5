#include "probe/probe_plane.hpp"

#include <cassert>

#include "telemetry/telemetry.hpp"

namespace conga::probe {

PathTable::PathTable(int num_leaves, int num_uplinks)
    : num_uplinks_(static_cast<std::size_t>(num_uplinks)),
      entries_(static_cast<std::size_t>(num_leaves) *
               static_cast<std::size_t>(num_uplinks)) {}

void PathTable::update(net::LeafId dst, int uplink, std::uint8_t util,
                       sim::TimeNs now) {
  Entry& e = entries_[index(dst, uplink)];
  e.util = util;
  e.at = now;
  ++updates_;
}

std::uint8_t PathTable::metric(net::LeafId dst, int uplink,
                               sim::TimeNs now) const {
  const Entry& e = entries_[index(dst, uplink)];
  if (e.at < 0 || now - e.at > kProbeAgeAfter) return kUnknown;
  return e.util;
}

sim::TimeNs PathTable::updated_at(net::LeafId dst, int uplink) const {
  return entries_[index(dst, uplink)].at;
}

ProbeAgent::ProbeAgent(net::LeafSwitch& leaf, int num_leaves)
    : leaf_(leaf),
      num_leaves_(num_leaves),
      table_(num_leaves, static_cast<int>(leaf.uplinks().size())) {}

ProbeAgent::~ProbeAgent() {
  // install_lb() can replace the owning policy mid-run; the pending tick
  // must not outlive the agent.
  if (pending_ != sim::kInvalidEventId) leaf_.scheduler().cancel(pending_);
}

void ProbeAgent::start() {
  if (started_) return;
  started_ = true;
  pending_ =
      leaf_.scheduler().schedule_after(kProbePeriod, [this] { tick(); });
}

void ProbeAgent::tick() {
  pending_ = sim::kInvalidEventId;
  const sim::TimeNs now = leaf_.scheduler().now();
  for (net::LeafId dst = 0; dst < num_leaves_; ++dst) {
    if (dst == leaf_.id()) continue;
    int viable[16];
    const int n = leaf_.viable_uplinks(dst, viable);
    for (int k = 0; k < n; ++k) send_request(dst, viable[k], now);
  }
  ++round_;
  if (now + kProbePeriod <= kProbeHorizon) {
    pending_ =
        leaf_.scheduler().schedule_after(kProbePeriod, [this] { tick(); });
  }
}

void ProbeAgent::send_request(net::LeafId dst, int uplink, sim::TimeNs now) {
  net::PacketPtr p = net::make_packet();
  p->flow.src_host = static_cast<net::HostId>(leaf_.id());
  p->flow.dst_host = static_cast<net::HostId>(dst);
  // Vary the wire identity each round so spine ECMP spreads successive
  // probes across parallel downlinks; the table keeps the freshest reply.
  p->flow.src_port = static_cast<std::uint16_t>(round_);
  p->flow.dst_port = static_cast<std::uint16_t>(uplink);
  p->size_bytes = kProbeBytes;
  p->probe.kind = static_cast<std::uint8_t>(ProbeKind::kRequest);
  p->probe.origin_leaf = leaf_.id();
  p->probe.origin_uplink = static_cast<std::uint8_t>(uplink);
  ++requests_sent_;
  telemetry::emit(tele_, telemetry::EventType::kProbeSent, tele_comp_, now,
                  static_cast<std::uint64_t>(dst),
                  static_cast<std::uint64_t>(uplink));
  leaf_.send_probe(std::move(p), uplink, dst);
}

void ProbeAgent::send_reply(const net::Packet& req, sim::TimeNs /*now*/) {
  const net::LeafId origin = req.probe.origin_leaf;
  int viable[16];
  const int n = leaf_.viable_uplinks(origin, viable);
  if (n == 0) return;  // origin unreachable: the request's entry goes stale
  // Replies rotate over the viable uplinks instead of consulting the load
  // balancer: control traffic must not touch the policy's flowlet or queue
  // state, and rotation keeps the return load spread deterministically.
  const int u = viable[reply_rr_++ % static_cast<std::uint32_t>(n)];
  net::PacketPtr p = net::make_packet();
  p->flow.src_host = static_cast<net::HostId>(leaf_.id());
  p->flow.dst_host = static_cast<net::HostId>(origin);
  p->flow.src_port = static_cast<std::uint16_t>(reply_rr_);
  p->flow.dst_port = req.probe.origin_uplink;
  p->size_bytes = kProbeBytes;
  p->probe.kind = static_cast<std::uint8_t>(ProbeKind::kReply);
  p->probe.origin_leaf = origin;
  p->probe.origin_uplink = req.probe.origin_uplink;
  // The forward path's measurement: max DRE utilization the overlay
  // accumulated on the way here (quantized exactly like CONGA's CE).
  p->probe.util = req.overlay.ce;
  ++replies_sent_;
  leaf_.send_probe(std::move(p), u, origin);
}

void ProbeAgent::on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) {
  if (pkt->probe.kind == static_cast<std::uint8_t>(ProbeKind::kRequest)) {
    telemetry::emit(tele_, telemetry::EventType::kProbeReceived, tele_comp_,
                    now, static_cast<std::uint64_t>(pkt->probe.origin_leaf),
                    pkt->overlay.ce);
    send_reply(*pkt, now);
    return;
  }
  if (pkt->probe.kind == static_cast<std::uint8_t>(ProbeKind::kReply)) {
    ++replies_received_;
    assert(pkt->probe.origin_leaf == leaf_.id());
    const int uplink = pkt->probe.origin_uplink;
    if (uplink < 0 || uplink >= static_cast<int>(leaf_.uplinks().size())) {
      return;
    }
    // The replying leaf is the destination this path was probed toward.
    const net::LeafId dst = pkt->overlay.src_leaf;
    table_.update(dst, uplink, pkt->probe.util, now);
    telemetry::emit(
        tele_, telemetry::EventType::kProbeTableUpdate, tele_comp_, now,
        (static_cast<std::uint64_t>(dst) << 8) |
            static_cast<std::uint64_t>(uplink),
        pkt->probe.util);
  }
}

void ProbeAgent::attach_telemetry(telemetry::TraceSink* sink) {
  tele_ = sink;
  if (sink != nullptr) {
    tele_comp_ = sink->intern_component(leaf_.name() + "/probe");
  }
}

}  // namespace conga::probe
