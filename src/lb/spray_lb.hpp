// Per-packet random spraying (cf. DRB / packet-spraying baselines, §2.4,
// §8). Optimal static balance per link, but reorders heavily — equivalent to
// CONGA with a zero flowlet gap and no congestion awareness.
#pragma once

#include "lb/load_balancer.hpp"
#include "net/leaf_switch.hpp"

namespace conga::lb {

class SprayLb final : public LoadBalancer {
 public:
  explicit SprayLb(net::LeafSwitch& leaf) : leaf_(leaf) {}

  int select_uplink(const net::Packet& /*pkt*/, net::LeafId dst_leaf,
                    sim::TimeNs /*now*/) override {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    return viable[leaf_.rng().index(static_cast<std::size_t>(n))];
  }

  std::string name() const override { return "Spray"; }

 private:
  net::LeafSwitch& leaf_;
};

}  // namespace conga::lb
