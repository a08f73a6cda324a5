// Spine switch.
//
// Stateless per-flow: forwards on the outer (overlay) destination leaf. When
// several parallel links lead to the destination leaf it picks one by ECMP
// hash of the wire 5-tuple (paper §3.3 footnote: "the spine switches pick one
// using standard ECMP hashing"). Its links' DREs mark CE as packets traverse
// them — the spine's entire role in CONGA.
//
// In a 3-tier pod fabric (§7 "Larger topologies") the spine additionally
// holds core uplinks: destinations outside its pod are forwarded to the core
// tier by ECMP. A core switch is a SpineSwitch too: its per-leaf table holds
// its links into the destination leaf's pod spines, so it ECMPs over those.
// CONGA still operates leaf-to-leaf end to end — the CE field keeps
// accumulating across the extra hops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"

namespace conga::net {

/// DRILL's choice among the candidate ports cand[0..n): the sampled ports,
/// then the remembered port `mem` if it is still valid (-1 otherwise). The
/// shortest queue_bytes(port) wins; a tie goes to `mem`, then to the lowest
/// index (pinned by the DrillLb tests). Shared by the leaf half
/// (lb_ext::DrillLb) and the spine half (SpineSwitch).
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

class SpineSwitch : public Node {
 public:
  /// `core` only renames the switch ("core<id>"); forwarding is the same.
  SpineSwitch(int id, int num_leaves, std::uint64_t hash_seed,
              bool core = false)
      : id_(id), core_(core),
        ports_to_leaf_(static_cast<std::size_t>(num_leaves)),
        hash_seed_(hash_seed) {}

  /// Registers a spine -> leaf link (possibly one of several in parallel).
  void add_downlink(LeafId leaf, Link* link) {
    ports_to_leaf_[static_cast<std::size_t>(leaf)].push_back(link);
  }

  /// Removes a failed downlink from the forwarding table.
  void remove_downlink(LeafId leaf, Link* link);
  /// Empties the forwarding table for `leaf` (a core's routes are rebuilt
  /// whenever a destination pod's leaf-spine links change).
  void clear_downlinks(LeafId leaf) {
    ports_to_leaf_[static_cast<std::size_t>(leaf)].clear();
  }

  /// Downlinks currently in the forwarding table for `leaf` (re-entrancy
  /// tests assert fail/restore sequences never double-remove or
  /// duplicate-add a port).
  std::size_t downlink_count(LeafId leaf) const {
    return ports_to_leaf_[static_cast<std::size_t>(leaf)].size();
  }

  /// 3-tier wiring: declares pod membership (per global leaf id) and this
  /// spine's own pod. Destinations in other pods route via core uplinks.
  void set_pod_membership(std::vector<int> leaf_to_pod, int my_pod) {
    leaf_to_pod_ = std::move(leaf_to_pod);
    my_pod_ = my_pod;
  }
  void add_core_uplink(Link* link) { core_uplinks_.push_back(link); }

  /// DRILL forwarding mode (src/lb_ext/drill_lb.hpp is the leaf half): when
  /// several parallel links lead to the destination leaf, pick by
  /// power-of-two-choices over live egress queue depths with per-destination
  /// memory of the last winner, instead of ECMP hashing. The Rng is
  /// allocated only when enabled, so ECMP fabrics carry no extra state or
  /// draws (pay-for-what-you-use). Core uplinks of 3-tier pods keep ECMP.
  void enable_drill(std::uint64_t rng_seed) {
    drill_rng_ = std::make_unique<sim::Rng>(rng_seed);
    drill_best_.assign(ports_to_leaf_.size(), -1);
  }
  void disable_drill() {
    drill_rng_.reset();
    drill_best_.clear();
  }
  bool drill_enabled() const { return drill_rng_ != nullptr; }

  void receive(PacketPtr pkt, int in_port) override;
  std::string name() const override {
    return (core_ ? "core" : "spine") + std::to_string(id_);
  }

  int id() const { return id_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  /// Two-choices-plus-memory pick over the parallel links toward `leaf`.
  /// Ties prefer the remembered port, then the lowest index (the same pinned
  /// rule as the leaf-side DrillLb).
  std::size_t drill_pick(std::size_t leaf, const std::vector<Link*>& links);

  int id_;
  bool core_;
  std::vector<std::vector<Link*>> ports_to_leaf_;
  std::uint64_t hash_seed_;
  std::uint64_t dropped_no_route_ = 0;
  std::vector<int> leaf_to_pod_;  ///< empty in plain 2-tier fabrics
  int my_pod_ = -1;
  std::vector<Link*> core_uplinks_;
  std::unique_ptr<sim::Rng> drill_rng_;  ///< null == ECMP forwarding
  std::vector<int> drill_best_;          ///< per-leaf last winner (DRILL)
};

}  // namespace conga::net
