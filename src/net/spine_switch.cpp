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
    i = drill_rng_ != nullptr
            ? drill_pick(leaf, links)
            : static_cast<std::size_t>(
                  mix64(pkt->wire_key().hash() ^ hash_seed_) % links.size());
  }
  links[i]->send(std::move(pkt));
}

std::size_t SpineSwitch::drill_pick(std::size_t leaf,
                                    const std::vector<Link*>& links) {
  // Downlink removals shift indices, so the remembered winner is only a
  // heuristic; out-of-range memory is ignored until rewritten.
  const int mem = drill_best_[leaf];
  const bool mem_ok = mem >= 0 && mem < static_cast<int>(links.size());
  int cand[3];
  int n = 0;
  cand[n++] = static_cast<int>(drill_rng_->index(links.size()));
  cand[n++] = static_cast<int>(drill_rng_->index(links.size()));
  if (mem_ok) cand[n++] = mem;
  const int winner =
      drill_winner(cand, n, mem_ok ? mem : -1, [&](int port) {
        return links[static_cast<std::size_t>(port)]->queue().bytes();
      });
  drill_best_[leaf] = winner;
  return static_cast<std::size_t>(winner);
}

}  // namespace conga::net
