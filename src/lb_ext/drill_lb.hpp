// DRILL (Ghorbani et al., SIGCOMM'17): per-packet micro load balancing from
// local state only. Every packet samples `d` random uplinks, adds the port
// remembered as last-best for the destination leaf, and sends on the one
// with the smallest live egress queue — power-of-two-choices with memory,
// DRILL(d, m=1). No flowlet table, no remote state: reordering is the price,
// measured by the receiver-side reordering ledger (tcp/reorder_*).
//
// The leaf half reads leaf uplink queues; installing the "drill" policy via
// lb_ext::install_policy() also flips the spines to the matching
// queue-aware forwarding (SpineSwitch::enable_drill).
#pragma once

#include <vector>

#include "lb/load_balancer.hpp"
#include "net/leaf_switch.hpp"
#include "net/spine_switch.hpp"

namespace conga::lb_ext {

struct DrillConfig {
  int samples = 2;  ///< d: random candidates per packet (clamped to [1, 6])
};

class DrillLb final : public lb::LoadBalancer {
 public:
  DrillLb(net::LeafSwitch& leaf, int num_leaves, const DrillConfig& cfg = {})
      : leaf_(leaf),
        samples_(cfg.samples < 1 ? 1 : (cfg.samples > 6 ? 6 : cfg.samples)),
        best_(static_cast<std::size_t>(num_leaves), -1) {}

  int select_uplink(const net::Packet& /*pkt*/, net::LeafId dst_leaf,
                    sim::TimeNs /*now*/) override {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    const auto d = static_cast<std::size_t>(dst_leaf);
    if (n == 1) {
      best_[d] = viable[0];
      return viable[0];
    }
    const int mem = best_[d];
    const bool mem_ok = leaf_.usable_uplink(mem, dst_leaf);
    int cand[7];
    int m = 0;
    for (int s = 0; s < samples_; ++s) {
      cand[m++] = viable[leaf_.rng().index(static_cast<std::size_t>(n))];
    }
    if (mem_ok) cand[m++] = mem;
    const int winner =
        net::drill_winner(cand, m, mem_ok ? mem : -1, [&](int port) {
          return leaf_.uplinks()[static_cast<std::size_t>(port)]
              .link->queue()
              .bytes();
        });
    best_[d] = winner;
    return winner;
  }

  /// The remembered last-best port toward `dst_leaf` (-1 before the first
  /// decision); exposed for the tie-break tests.
  int remembered(net::LeafId dst_leaf) const {
    return best_[static_cast<std::size_t>(dst_leaf)];
  }

  std::string name() const override { return "DRILL"; }

 private:
  net::LeafSwitch& leaf_;
  int samples_;
  std::vector<int> best_;  ///< per-destination-leaf last winner
};

}  // namespace conga::lb_ext
