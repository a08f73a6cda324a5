// DRILL (Ghorbani et al., SIGCOMM'17): per-packet micro load balancing from
// local state only. Every packet samples 2 random ports, adds the port
// remembered as last-best for the destination leaf, and sends on the one
// with the smallest live egress queue — power-of-two-choices with memory,
// DRILL(2, 1). No flowlet table, no remote state: reordering is the price,
// measured by the receiver-side reordering ledger (tcp/reorder_*).
//
// Two halves run the same sampler (drill_sample): DrillLb chooses among a
// leaf's viable uplinks, DrillSpineLb among a spine's parallel downlinks
// toward the destination leaf. The "drill" policy row installs both: the
// leaf half as its LbFactory, the spine half through
// Fabric::install_spine_lb (drill_spines()). Core uplinks stay hashed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/fabric.hpp"
#include "net/leaf_switch.hpp"
#include "net/link.hpp"
#include "sim/random.hpp"

namespace conga::lb_ext {

/// DRILL's choice among the candidate ports cand[0..n): the sampled ports,
/// then the remembered port `mem` if it is still valid (-1 otherwise). The
/// shortest queue_bytes(port) wins; a tie goes to `mem`, then to the lowest
/// index (pinned by the DrillLb and DrillSpineLb tests).
template <class QueueBytes>
int drill_winner(const int* cand, int n, int mem, QueueBytes queue_bytes) {
  int winner = -1;
  std::uint64_t winner_q = 0;
  for (int c = 0; c < n; ++c) {
    const std::uint64_t q = queue_bytes(cand[c]);
    if (winner < 0 || q < winner_q) {
      winner = cand[c];
      winner_q = q;
    } else if (q == winner_q && winner != cand[c]) {
      if (cand[c] == mem) {
        winner = mem;
      } else if (winner != mem && cand[c] < winner) {
        winner = cand[c];
      }
    }
  }
  return winner;
}

/// One DRILL(2, 1) decision over `n` choices: two rng.index(n) draws mapped
/// to ports by `port_of`, plus the remembered port `mem` when `mem_ok`;
/// drill_winner picks among them and the winner becomes the new `mem`.
template <class PortOf, class QueueBytes>
int drill_sample(sim::Rng& rng, std::size_t n, PortOf port_of, int& mem,
                 bool mem_ok, QueueBytes queue_bytes) {
  int cand[3];
  int m = 0;
  cand[m++] = port_of(rng.index(n));
  cand[m++] = port_of(rng.index(n));
  if (mem_ok) cand[m++] = mem;
  mem = drill_winner(cand, m, mem_ok ? mem : -1, queue_bytes);
  return mem;
}

/// The leaf half: chooses among the uplinks that reach the destination leaf,
/// drawing from the leaf's own Rng.
class DrillLb final : public lb::LoadBalancer {
 public:
  DrillLb(net::LeafSwitch& leaf, int num_leaves)
      : leaf_(leaf), best_(static_cast<std::size_t>(num_leaves), -1) {}

  int select_uplink(const net::Packet& /*pkt*/, net::LeafId dst_leaf,
                    sim::TimeNs /*now*/) override {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    int& mem = best_[static_cast<std::size_t>(dst_leaf)];
    if (n == 1) {
      mem = viable[0];
      return mem;
    }
    return drill_sample(
        leaf_.rng(), static_cast<std::size_t>(n),
        [&](std::size_t i) { return viable[i]; }, mem,
        leaf_.usable_uplink(mem, dst_leaf), [&](int port) {
          return leaf_.uplinks()[static_cast<std::size_t>(port)]
              .link->queue()
              .bytes();
        });
  }

  /// The remembered last-best port toward `dst_leaf` (-1 before the first
  /// decision); exposed for the tie-break tests.
  int remembered(net::LeafId dst_leaf) const {
    return best_[static_cast<std::size_t>(dst_leaf)];
  }

  std::string name() const override { return "DRILL"; }

 private:
  net::LeafSwitch& leaf_;
  std::vector<int> best_;  ///< per-destination-leaf last winner
};

/// The spine half: chooses among a spine's parallel downlinks toward the
/// destination leaf, drawing from its own Rng (seeded per spine by
/// Fabric::install_spine_lb).
class DrillSpineLb final : public lb::SpineBalancer {
 public:
  DrillSpineLb(int num_leaves, std::uint64_t seed)
      : rng_(seed), best_(static_cast<std::size_t>(num_leaves), -1) {}

  std::size_t select_downlink(net::LeafId dst_leaf,
                              const std::vector<net::Link*>& links) override {
    // Downlink removals shift indices, so the remembered winner is only a
    // heuristic; out-of-range memory is ignored until rewritten.
    int& mem = best_[static_cast<std::size_t>(dst_leaf)];
    const bool mem_ok = mem >= 0 && mem < static_cast<int>(links.size());
    return static_cast<std::size_t>(drill_sample(
        rng_, links.size(),
        [](std::size_t i) { return static_cast<int>(i); }, mem, mem_ok,
        [&](int port) {
          return links[static_cast<std::size_t>(port)]->queue().bytes();
        }));
  }

  /// The remembered last-best downlink toward `dst_leaf` (-1 before the
  /// first decision); exposed for the tie-break tests.
  int remembered(net::LeafId dst_leaf) const {
    return best_[static_cast<std::size_t>(dst_leaf)];
  }

 private:
  sim::Rng rng_;
  std::vector<int> best_;  ///< per-destination-leaf last winner
};

/// DRILL's spine half for Fabric::install_spine_lb.
inline net::Fabric::SpineLbFactory drill_spines() {
  return [](const net::TopologyConfig& topo,
            std::uint64_t seed) -> std::unique_ptr<lb::SpineBalancer> {
    return std::make_unique<DrillSpineLb>(topo.num_leaves, seed);
  };
}

}  // namespace conga::lb_ext
