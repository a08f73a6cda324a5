#include "net/spine_switch.hpp"

#include <algorithm>
#include <cassert>

#include "debug/invariants.hpp"

namespace conga::net {

void SpineSwitch::remove_downlink(LeafId leaf, Link* link) {
  auto& v = ports_to_leaf_[static_cast<std::size_t>(leaf)];
  v.erase(std::remove(v.begin(), v.end(), link), v.end());
}

void SpineSwitch::receive(PacketPtr pkt, int /*in_port*/) {
  assert(pkt->overlay.valid && "spine received a non-encapsulated packet");
  const auto leaf = static_cast<std::size_t>(pkt->overlay.dst_leaf);
  assert(leaf < ports_to_leaf_.size());
  CONGA_INVARIANT(check_condition(
      pkt->overlay.valid && leaf < ports_to_leaf_.size(), name(), 0,
      "spine.overlay-routing",
      "spine received a non-encapsulated packet or an out-of-range "
      "destination leaf"));

  // 3-tier: destinations outside this pod go up to the core.
  if (!leaf_to_pod_.empty() && leaf_to_pod_[leaf] != my_pod_) {
    if (core_uplinks_.empty()) {
      ++dropped_no_route_;
      return;
    }
    std::size_t i = 0;
    if (core_uplinks_.size() > 1) {
      i = static_cast<std::size_t>(
          mix64(pkt->wire_key().hash() ^ hash_seed_ ^ 0x5bd1e995u) %
          core_uplinks_.size());
    }
    core_uplinks_[i]->send(std::move(pkt));
    return;
  }

  const auto& links = ports_to_leaf_[leaf];
  if (links.empty()) {
    ++dropped_no_route_;
    return;
  }
  std::size_t i = 0;
  if (links.size() > 1) {
    i = balancer_ != nullptr
            ? balancer_->select_downlink(pkt->overlay.dst_leaf, links)
            : static_cast<std::size_t>(
                  mix64(pkt->wire_key().hash() ^ hash_seed_) % links.size());
  }
  links[i]->send(std::move(pkt));
}

}  // namespace conga::net
