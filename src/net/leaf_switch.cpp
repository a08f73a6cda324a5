#include "net/leaf_switch.hpp"

#include <cassert>
#include <utility>

#include "debug/invariants.hpp"

namespace conga::net {

LeafSwitch::LeafSwitch(sim::Scheduler& sched, LeafId id,
                       const std::vector<LeafId>* directory,
                       std::uint64_t rng_seed)
    : sched_(sched), id_(id), directory_(directory), rng_(rng_seed) {}

void LeafSwitch::add_host_port(HostId host, Link* down_link) {
  if (host_ports_.empty()) first_host_ = host;
  assert(host == first_host_ + static_cast<HostId>(host_ports_.size()) &&
         "a leaf's hosts are added in order, with no gaps");
  host_ports_.push_back(down_link);
}

int LeafSwitch::add_uplink(Link* up_link, int spine) {
  uplinks_.push_back(Uplink{up_link, spine});
  return static_cast<int>(uplinks_.size()) - 1;
}

void LeafSwitch::set_load_balancer(std::unique_ptr<lb::LoadBalancer> lb) {
  lb_ = std::move(lb);
}

void LeafSwitch::encapsulate(Packet& pkt, LeafId dst_leaf) const {
  pkt.overlay.valid = true;
  pkt.overlay.src_leaf = id_;
  pkt.overlay.dst_leaf = dst_leaf;
  pkt.overlay.ce = 0;
  pkt.overlay.fb_valid = false;
  pkt.size_bytes += kOverlayHeaderBytes;
}

void LeafSwitch::forward_down(PacketPtr pkt) {
  const auto port = static_cast<std::size_t>(wire_dst_host(*pkt) - first_host_);
  assert(port < host_ports_.size() && "destination host not on this leaf");
  host_ports_[port]->send(std::move(pkt));
}

void LeafSwitch::send_to_fabric(PacketPtr pkt, LeafId dst_leaf) {
  assert(lb_ != nullptr && "no load balancer installed");
  assert(!uplinks_.empty() && "leaf has no live uplinks");

  // Total partition toward dst_leaf (every uplink withdrawn — e.g. a
  // rebooting leaf, or the whole spine tier down): there is no route, so the
  // packet is dropped here. Load balancers are never invoked with an empty
  // candidate set.
  bool routable = false;
  for (std::size_t u = 0; u < uplinks_.size() && !routable; ++u) {
    routable = uplink_reaches(static_cast<int>(u), dst_leaf);
  }
  if (!routable) {
    ++dropped_no_route_;
    return;
  }

  encapsulate(*pkt, dst_leaf);
  const sim::TimeNs now = sched_.now();
  int up = lb_->select_uplink(*pkt, dst_leaf, now);
  assert(up >= 0 && up < static_cast<int>(uplinks_.size()));
  CONGA_INVARIANT(check_condition(
      usable_uplink(up, dst_leaf), name(), now, "leaf.uplink-validity",
      "load balancer picked an uplink that is out of range, down, or cannot "
      "reach the destination leaf"));
  pkt->overlay.lbtag = static_cast<std::uint8_t>(up);
  lb_->annotate(*pkt, up, now);

  ++packets_to_fabric_;
  uplinks_[static_cast<std::size_t>(up)].link->send(std::move(pkt));
}

void LeafSwitch::send_probe(PacketPtr pkt, int uplink, LeafId dst_leaf) {
  assert(pkt->probe.kind != 0 && "send_probe is for probe-plane packets");
  assert(uplink >= 0 && uplink < static_cast<int>(uplinks_.size()));
  encapsulate(*pkt, dst_leaf);
  pkt->overlay.lbtag = static_cast<std::uint8_t>(uplink);
  ++probes_to_fabric_;
  uplinks_[static_cast<std::size_t>(uplink)].link->send(std::move(pkt));
}

void LeafSwitch::receive(PacketPtr pkt, int /*in_port*/) {
  if (pkt->overlay.valid && pkt->probe.kind != 0) {
    // Probe-plane packet: it terminates here — handed to the balancer's
    // probe hook, never decapsulated or forwarded to a host. A policy
    // without a probe plane simply lets it drop.
    assert(pkt->overlay.dst_leaf == id_);
    ++probes_from_fabric_;
    if (lb_) lb_->on_probe_packet(std::move(pkt), sched_.now());
    return;
  }

  if (pkt->overlay.valid) {
    // Arrived from the fabric: harvest CONGA state, decapsulate, deliver.
    assert(pkt->overlay.dst_leaf == id_);
    CONGA_INVARIANT(check_condition(
        pkt->overlay.dst_leaf == id_, name(), sched_.now(),
        "leaf.overlay-routing",
        "fabric delivered a packet whose outer destination is another leaf"));
    ++packets_from_fabric_;
    if (lb_) lb_->on_fabric_receive(*pkt, sched_.now());
    pkt->overlay = OverlayHeader{};
    pkt->size_bytes -= kOverlayHeaderBytes;
    forward_down(std::move(pkt));
    return;
  }

  // Arrived from a host.
  const HostId dst = wire_dst_host(*pkt);
  const LeafId dst_leaf = leaf_of(dst);
  if (dst_leaf == id_) {
    forward_down(std::move(pkt));
  } else {
    send_to_fabric(std::move(pkt), dst_leaf);
  }
}

}  // namespace conga::net
