// ECMP: static hash of the 5-tuple onto the uplinks — the paper's primary
// baseline. Purely local, congestion-oblivious, one decision per flow (every
// packet of a flow hashes identically).
#pragma once

#include <cstdint>

#include "lb/load_balancer.hpp"
#include "net/leaf_switch.hpp"

namespace conga::lb {

class EcmpLb final : public LoadBalancer {
 public:
  explicit EcmpLb(net::LeafSwitch& leaf, std::uint64_t seed)
      : leaf_(leaf), seed_(seed) {}

  int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                    sim::TimeNs /*now*/) override {
    // Hash over the uplinks that are valid next hops for this destination.
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    return viable[net::mix64(pkt.wire_key().hash() ^ seed_) %
                  static_cast<std::uint64_t>(n)];
  }

  std::string name() const override { return "ECMP"; }

 private:
  net::LeafSwitch& leaf_;
  std::uint64_t seed_;
};

}  // namespace conga::lb
