// Spine switch.
//
// Stateless per-flow: forwards on the outer (overlay) destination leaf. When
// several parallel links lead to the destination leaf it picks one by ECMP
// hash of the wire 5-tuple (paper §3.3 footnote: "the spine switches pick one
// using standard ECMP hashing"). Its links' DREs mark CE as packets traverse
// them — the spine's entire role in CONGA. A policy that decides at the spine
// too installs an lb::SpineBalancer, which then makes that downlink choice
// instead of the hash; the switch itself knows no scheme.
//
// In a 3-tier pod fabric (§7 "Larger topologies") the spine additionally
// holds core uplinks: destinations outside its pod are forwarded to the core
// tier by ECMP. A core switch is a SpineSwitch too: its per-leaf table holds
// its links into the destination leaf's pod spines, so it ECMPs over those.
// CONGA still operates leaf-to-leaf end to end — the CE field keeps
// accumulating across the extra hops. Core uplinks are always hashed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/hash.hpp"

namespace conga::net {

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

  /// The downlink chooser for leaves reached over parallel links; null (the
  /// default) means ECMP hashing.
  void set_balancer(std::unique_ptr<lb::SpineBalancer> balancer) {
    balancer_ = std::move(balancer);
  }
  lb::SpineBalancer* balancer() const { return balancer_.get(); }

  void receive(PacketPtr pkt, int in_port) override;
  std::string name() const override {
    return (core_ ? "core" : "spine") + std::to_string(id_);
  }

  int id() const { return id_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  int id_;
  bool core_;
  std::vector<std::vector<Link*>> ports_to_leaf_;
  std::uint64_t hash_seed_;
  std::uint64_t dropped_no_route_ = 0;
  std::vector<int> leaf_to_pod_;  ///< empty in plain 2-tier fabrics
  int my_pod_ = -1;
  std::vector<Link*> core_uplinks_;
  std::unique_ptr<lb::SpineBalancer> balancer_;  ///< null == ECMP
};

}  // namespace conga::net
