#include "lb_ext/hula_lb.hpp"

namespace conga::lb_ext {

HulaLb::HulaLb(net::LeafSwitch& leaf, int num_leaves)
    : FlowletLb(leaf, {.gap = kHulaGap}), agent_(leaf, num_leaves) {
  agent_.start();
}

int HulaLb::choose(const net::FlowKey& key, net::LeafId dst_leaf,
                   sim::TimeNs now) {
  return sticky_argmin(key, dst_leaf, [&](int uplink) {
    return agent_.table().metric(dst_leaf, uplink, now);
  });
}

void HulaLb::on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) {
  agent_.on_probe_packet(std::move(pkt), now);
}

void HulaLb::attach_telemetry(telemetry::TraceSink* sink) {
  // The probe agent registers its component first, as it always has: the
  // registration order is part of the telemetry digest.
  agent_.attach_telemetry(sink);
  FlowletLb::attach_telemetry(sink);
}

}  // namespace conga::lb_ext
