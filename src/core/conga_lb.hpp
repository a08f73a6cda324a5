// CONGA: the paper's load-balancing algorithm, as a LeafSwitch strategy.
//
// Combines (per §3 / Fig 6):
//  * per-uplink local DREs (owned by the uplink links themselves),
//  * the Congestion-To-Leaf table of remote path metrics,
//  * the Congestion-From-Leaf table + piggybacked feedback selection,
//  * the Flowlet Table.
//
// Decision rule (§3.5): on the first packet of a flowlet pick the uplink
// minimizing max(local DRE metric, remote metric to the destination leaf);
// ties prefer the port the flow last used (a flow only moves for a strictly
// better uplink), then random. Subsequent packets of the flowlet stick to the
// cached port.
//
// CONGA-Flow (§5) is this class with the flowlet gap set above the maximum
// path latency (one decision per flow); see make_conga_flow_config().
#pragma once

#include <cstdint>
#include <string>

#include "core/congestion_tables.hpp"
#include "core/flowlet_table.hpp"
#include "lb/flowlet_lb.hpp"
#include "net/leaf_switch.hpp"

namespace conga::core {

/// The LBTag field is 4 bits wide (§3.1).
constexpr int kMaxLbTagValues = 16;

struct CongaConfig {
  FlowletTableConfig flowlet;                           ///< Tfl = 500us default
  sim::TimeNs metric_age_after = sim::milliseconds(10);  ///< §3.3 aging
  bool feedback_favor_changed = true;  ///< §3.3 step 4 (ablation knob)
};

/// CONGA-Flow's flowlet gap: larger than any path latency in the paper's
/// testbed, so each flow gets one load-balancing decision.
constexpr sim::TimeNs kCongaFlowGap = sim::milliseconds(13);

inline CongaConfig make_conga_flow_config() {
  CongaConfig cfg;
  cfg.flowlet.gap = kCongaFlowGap;
  return cfg;
}

class CongaLb final : public lb::FlowletLb {
 public:
  /// `num_leaves` sizes the congestion tables; the uplink count is taken from
  /// the leaf (which must be fully wired before the balancer is installed).
  CongaLb(net::LeafSwitch& leaf, int num_leaves, const CongaConfig& cfg,
          std::string display_name = "CONGA");

  void on_fabric_receive(const net::Packet& pkt, sim::TimeNs now) override;
  void annotate(net::Packet& pkt, int uplink, sim::TimeNs now) override;
  void attach_telemetry(telemetry::TraceSink* sink) override;
  std::string name() const override { return display_name_; }

  /// The §3.5 rule in isolation (no flowlet cache); exposed for tests.
  int decide(const net::FlowKey& key, net::LeafId dst_leaf, sim::TimeNs now) {
    return choose(key, dst_leaf, now);
  }

  /// Path cost for one uplink: max(local, remote).
  std::uint8_t cost(net::LeafId dst_leaf, int uplink, sim::TimeNs now) const;

  CongestionFromLeafTable& from_leaf_table() { return from_leaf_; }

 private:
  int choose(const net::FlowKey& key, net::LeafId dst_leaf,
             sim::TimeNs now) override;

  std::string display_name_;
  CongestionToLeafTable to_leaf_;
  CongestionFromLeafTable from_leaf_;
};

}  // namespace conga::core
