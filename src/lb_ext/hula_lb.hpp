// HULA-style probe-informed flowlet routing (Katta et al., SOSR'16).
// Forwarding state is learned entirely from the probe plane: a ProbeAgent
// keeps a per-(destination leaf, uplink) best-path utilization table fresh,
// and each new flowlet takes the uplink with the lowest learned metric.
// Unlike CONGA there is no piggybacked feedback and no per-packet CE use by
// the decision — congestion information travels only in probes, so its
// freshness is bounded by the probe period and its cost is real probe
// packets on real links.
//
// Divergences from the paper are documented in DESIGN.md §12 (request/reply
// echo instead of switch-replicated one-way probes; leaf-resident tables).
#pragma once

#include "core/flowlet_table.hpp"
#include "lb/flowlet_lb.hpp"
#include "net/leaf_switch.hpp"
#include "probe/probe_plane.hpp"

namespace conga::lb_ext {

/// HULA's evaluation uses a much finer flowlet gap than CONGA (it leans on
/// the probe plane to keep short flowlets well-routed); owned per-policy so
/// CONGA's Tfl never leaks in.
constexpr sim::TimeNs kHulaGap = sim::microseconds(100);

class HulaLb final : public lb::FlowletLb {
 public:
  HulaLb(net::LeafSwitch& leaf, int num_leaves);

  void on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) override;
  void attach_telemetry(telemetry::TraceSink* sink) override;
  std::string name() const override { return "HULA"; }

  /// The probe-table decision in isolation (no flowlet cache); for tests.
  int decide(const net::FlowKey& key, net::LeafId dst_leaf, sim::TimeNs now) {
    return choose(key, dst_leaf, now);
  }

  probe::ProbeAgent& agent() { return agent_; }

 private:
  int choose(const net::FlowKey& key, net::LeafId dst_leaf,
             sim::TimeNs now) override;

  probe::ProbeAgent agent_;
};

}  // namespace conga::lb_ext
