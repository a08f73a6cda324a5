// Flowlet switching (paper §3.4) as a base class. Every flowlet-switched
// policy follows one recipe: look the packet's flow up in the flowlet table,
// keep the cached uplink while the flowlet is alive and the uplink still
// reaches the destination, and otherwise make one decision and install it.
// FlowletLb owns that recipe and the table; a policy is its choose() body
// (CONGA, HULA, LetFlow, Local, LocalEq, Weighted).
#pragma once

#include <cstdint>

#include "core/flowlet_table.hpp"
#include "lb/load_balancer.hpp"
#include "net/leaf_switch.hpp"

namespace conga::lb {

class FlowletLb : public LoadBalancer {
 public:
  /// The table is labelled "<leaf>/flowlets" in invariant reports and, once
  /// attached, in telemetry.
  FlowletLb(net::LeafSwitch& leaf, const core::FlowletTableConfig& cfg);

  int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                    sim::TimeNs now) final;

  /// Routes the flowlet table's events to `sink`. A policy with more state
  /// overrides this and attaches that state as well.
  void attach_telemetry(telemetry::TraceSink* sink) override;

  core::FlowletTable& flowlets() { return flowlets_; }

 protected:
  /// The uplink for a new flowlet of `key`. LeafSwitch drops packets toward
  /// a leaf no uplink reaches, so at least one viable uplink exists.
  virtual int choose(const net::FlowKey& key, net::LeafId dst_leaf,
                     sim::TimeNs now) = 0;

  /// Interns "<leaf><suffix>" in `sink` (0 when detached), for state a
  /// policy attaches next to the flowlet table.
  std::uint32_t component(telemetry::TraceSink* sink,
                          const char* suffix) const;

  /// The §3.5 tie-break over the viable uplinks with the lowest
  /// `metric(uplink)`: keep the port `key` last used if it is among them (a
  /// flow only moves for a strictly better uplink), else draw one of them
  /// at random.
  template <class Metric>
  int sticky_argmin(const net::FlowKey& key, net::LeafId dst_leaf,
                    Metric&& metric) {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    int ties[16];
    int nties = 0;
    std::uint8_t best = 0;
    for (int k = 0; k < n; ++k) {
      const std::uint8_t m = metric(viable[k]);
      if (nties == 0 || m < best) {
        best = m;
        nties = 0;
      } else if (m != best) {
        continue;
      }
      ties[nties++] = viable[k];
    }
    const int last = flowlets_.last_port(key);
    for (int k = 0; k < nties; ++k) {
      if (ties[k] == last) return last;
    }
    return ties[leaf_.rng().index(static_cast<std::size_t>(nties))];
  }

  net::LeafSwitch& leaf_;
  core::FlowletTable flowlets_;
};

}  // namespace conga::lb
