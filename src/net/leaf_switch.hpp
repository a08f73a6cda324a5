// Leaf (top-of-rack) switch.
//
// Holds the host-facing ports and the fabric uplinks, performs overlay
// encapsulation/decapsulation (the VXLAN-style tunnel of §2.5), and delegates
// the uplink choice to a pluggable LoadBalancer. All CONGA leaf state lives
// inside the CongaLb strategy (src/core/conga_lb.hpp); the switch itself is
// scheme-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::net {

class LeafSwitch : public Node {
 public:
  struct Uplink {
    Link* link = nullptr;  ///< leaf -> spine link (owned by the Fabric)
    int spine = -1;        ///< spine this uplink attaches to
  };

  /// `directory` maps HostId -> LeafId for the whole fabric (the overlay
  /// mapping of endpoint to tunnel endpoint; assumed given, as in the paper).
  LeafSwitch(sim::Scheduler& sched, LeafId id,
             const std::vector<LeafId>* directory, std::uint64_t rng_seed);

  // --- wiring (called by the topology builder) ---
  void add_host_port(HostId host, Link* down_link);
  int add_uplink(Link* up_link, int spine);
  void set_load_balancer(std::unique_ptr<lb::LoadBalancer> lb);

  /// Routing state: which uplinks can reach which destination leaf (a spine
  /// with no surviving downlink to the destination is not a valid next hop —
  /// the fabric's routing protocol withdraws it). reaches[uplink][leaf].
  void set_uplink_reachability(std::vector<std::vector<bool>> reaches) {
    uplink_reaches_ = std::move(reaches);
  }

  /// Administrative liveness of one uplink (set false when the routing
  /// layer detects the link failed at runtime; true again on recovery).
  /// Indices are stable across failures so CONGA's tables stay consistent.
  void set_uplink_live(int uplink, bool live) {
    if (uplink_live_.empty()) {
      uplink_live_.assign(uplinks_.size(), true);
    }
    uplink_live_[static_cast<std::size_t>(uplink)] = live;
  }
  bool uplink_live(int uplink) const {
    return uplink_live_.empty() ||
           uplink_live_[static_cast<std::size_t>(uplink)];
  }

  /// True if `uplink` is a valid next hop toward `dst_leaf`. Load balancers
  /// must only pick among uplinks for which this holds. Defaults to true
  /// when no reachability table was installed (fully-connected fabrics).
  bool uplink_reaches(int uplink, LeafId dst_leaf) const {
    if (!uplink_live(uplink)) return false;
    if (uplink_reaches_.empty()) return true;
    return uplink_reaches_[static_cast<std::size_t>(uplink)]
                          [static_cast<std::size_t>(dst_leaf)];
  }

  /// True if `uplink` is an index into uplinks() that reaches `dst_leaf`:
  /// the check for a remembered port (flowlet entry, flowcell, last-best
  /// port) that may predate a failure.
  bool usable_uplink(int uplink, LeafId dst_leaf) const {
    return uplink >= 0 && uplink < static_cast<int>(uplinks_.size()) &&
           uplink_reaches(uplink, dst_leaf);
  }

  /// Writes the uplinks that reach `dst_leaf` to `out` in index order and
  /// returns their count. 16 bounds the uplinks of a leaf: the LBTag is 4
  /// bits (TopologyConfig::validate).
  int viable_uplinks(LeafId dst_leaf, int (&out)[16]) const {
    int n = 0;
    for (int i = 0; i < static_cast<int>(uplinks_.size()); ++i) {
      if (uplink_reaches(i, dst_leaf)) out[n++] = i;
    }
    return n;
  }

  // --- Node ---
  void receive(PacketPtr pkt, int in_port) override;
  std::string name() const override { return "leaf" + std::to_string(id_); }

  // --- accessors (used by load balancers and tests) ---
  LeafId id() const { return id_; }
  const std::vector<Uplink>& uplinks() const { return uplinks_; }
  sim::Scheduler& scheduler() { return sched_; }
  sim::Rng& rng() { return rng_; }
  lb::LoadBalancer* load_balancer() { return lb_.get(); }
  LeafId leaf_of(HostId h) const { return (*directory_)[static_cast<std::size_t>(h)]; }

  std::uint64_t packets_to_fabric() const { return packets_to_fabric_; }
  std::uint64_t packets_from_fabric() const { return packets_from_fabric_; }
  /// Packets dropped because no uplink could reach the destination leaf
  /// (every candidate withdrawn — a switch-reboot fault, not overload).
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

  /// Injects a probe-plane packet (pkt->probe.kind != 0) on `uplink` toward
  /// `dst_leaf`, encapsulating it like data traffic. The probe plane picks
  /// its own uplink, so the load balancer is bypassed entirely — its flowlet
  /// and queue state must not be perturbed by control traffic. The packet is
  /// charged to the chosen uplink's queue/DRE like any other, so probe
  /// overhead shows up as real bytes on links.
  void send_probe(PacketPtr pkt, int uplink, LeafId dst_leaf);

  /// Probe-plane packets injected by / terminated at this leaf. Counted
  /// separately from packets_to/from_fabric so data-plane accounting is
  /// unchanged when a probe-based policy runs.
  std::uint64_t probes_to_fabric() const { return probes_to_fabric_; }
  std::uint64_t probes_from_fabric() const { return probes_from_fabric_; }

 private:
  void forward_down(PacketPtr pkt);
  /// Adds the overlay header toward `dst_leaf` (the LBTag is the caller's).
  void encapsulate(Packet& pkt, LeafId dst_leaf) const;
  void send_to_fabric(PacketPtr pkt, LeafId dst_leaf);
  HostId wire_dst_host(const Packet& pkt) const {
    return pkt.tcp.is_ack ? pkt.flow.src_host : pkt.flow.dst_host;
  }

  sim::Scheduler& sched_;
  LeafId id_;
  const std::vector<LeafId>* directory_;
  sim::Rng rng_;
  std::unique_ptr<lb::LoadBalancer> lb_;
  std::vector<Uplink> uplinks_;
  std::vector<std::vector<bool>> uplink_reaches_;
  std::vector<bool> uplink_live_;  ///< empty == all live
  // Downlink to host first_host_ + i at index i: Fabric::build adds a
  // leaf's hosts in order, with no gaps.
  HostId first_host_ = 0;
  std::vector<Link*> host_ports_;
  std::uint64_t packets_to_fabric_ = 0;
  std::uint64_t packets_from_fabric_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t probes_to_fabric_ = 0;
  std::uint64_t probes_from_fabric_ = 0;
};

}  // namespace conga::net
