#include "lb/flowlet_lb.hpp"

#include "telemetry/telemetry.hpp"

namespace conga::lb {

FlowletLb::FlowletLb(net::LeafSwitch& leaf,
                     const core::FlowletTableConfig& cfg)
    : leaf_(leaf), flowlets_(cfg) {
  flowlets_.set_label(leaf.name() + "/flowlets");
}

int FlowletLb::select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                             sim::TimeNs now) {
  const net::FlowKey key = pkt.wire_key();
  const int cached = flowlets_.lookup(key, now);
  if (leaf_.usable_uplink(cached, dst_leaf)) return cached;
  const int chosen = choose(key, dst_leaf, now);
  flowlets_.install(key, chosen, now);
  return chosen;
}

void FlowletLb::attach_telemetry(telemetry::TraceSink* sink) {
  flowlets_.set_telemetry(sink, component(sink, "/flowlets"));
}

std::uint32_t FlowletLb::component(telemetry::TraceSink* sink,
                                   const char* suffix) const {
  return sink == nullptr ? 0 : sink->intern_component(leaf_.name() + suffix);
}

}  // namespace conga::lb
