#include "core/conga_lb.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/telemetry.hpp"

namespace conga::core {

namespace {
CongestionTableConfig table_config(int num_leaves, int num_uplinks,
                                   const CongaConfig& cfg) {
  CongestionTableConfig t;
  t.num_leaves = num_leaves;
  t.num_uplinks = num_uplinks;
  t.age_after = cfg.metric_age_after;
  t.favor_changed = cfg.feedback_favor_changed;
  return t;
}
}  // namespace

CongaLb::CongaLb(net::LeafSwitch& leaf, int num_leaves, const CongaConfig& cfg,
                 std::string display_name)
    : FlowletLb(leaf, cfg.flowlet),
      display_name_(std::move(display_name)),
      to_leaf_(table_config(num_leaves, static_cast<int>(leaf.uplinks().size()),
                            cfg)),
      // The From-Leaf table is indexed by the *remote* leaf's LBTag, whose
      // range is bounded by the 4-bit field, not by our own uplink count
      // (remote leaves may have more uplinks than we do).
      from_leaf_(table_config(num_leaves, kMaxLbTagValues, cfg)) {
  assert(!leaf.uplinks().empty() &&
         "install CONGA after wiring the leaf's uplinks");
}

void CongaLb::attach_telemetry(telemetry::TraceSink* sink) {
  FlowletLb::attach_telemetry(sink);
  to_leaf_.set_telemetry(sink, component(sink, "/to_leaf"));
  from_leaf_.set_telemetry(sink, component(sink, "/from_leaf"));
}

std::uint8_t CongaLb::cost(net::LeafId dst_leaf, int uplink,
                           sim::TimeNs now) const {
  const std::uint8_t local =
      leaf_.uplinks()[static_cast<std::size_t>(uplink)].link->dre().quantized(
          now);
  const std::uint8_t remote = to_leaf_.metric(dst_leaf, uplink, now);
  return std::max(local, remote);
}

int CongaLb::choose(const net::FlowKey& key, net::LeafId dst_leaf,
                    sim::TimeNs now) {
  return sticky_argmin(key, dst_leaf,
                       [&](int uplink) { return cost(dst_leaf, uplink, now); });
}

void CongaLb::annotate(net::Packet& pkt, int /*uplink*/, sim::TimeNs now) {
  // LBTag was stamped by the leaf; add one piggybacked feedback pair for the
  // destination (the metrics we have been collecting *from* it).
  if (auto fb = from_leaf_.pick_feedback(pkt.overlay.dst_leaf, now)) {
    pkt.overlay.fb_valid = true;
    pkt.overlay.fb_lbtag = fb->lbtag;
    pkt.overlay.fb_metric = fb->metric;
  }
}

void CongaLb::on_fabric_receive(const net::Packet& pkt, sim::TimeNs now) {
  const net::OverlayHeader& oh = pkt.overlay;
  // Forward direction: the packet's CE is the max congestion it saw on the
  // path identified by (src_leaf, lbtag).
  from_leaf_.update(oh.src_leaf, oh.lbtag, oh.ce, now);
  // Piggybacked feedback: congestion of *our* uplink fb_lbtag on paths toward
  // the leaf this packet came from.
  if (oh.fb_valid &&
      oh.fb_lbtag < leaf_.uplinks().size()) {
    to_leaf_.update(oh.src_leaf, oh.fb_lbtag, oh.fb_metric, now);
  }
}

}  // namespace conga::core
