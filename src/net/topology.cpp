#include "net/topology.hpp"

namespace conga::net {

std::string TopologyConfig::validate() const {
  if (num_leaves < 1) return "num_leaves must be >= 1";
  if (num_spines < 1) return "num_spines must be >= 1";
  if (hosts_per_leaf < 1) return "hosts_per_leaf must be >= 1";
  if (links_per_spine < 1) return "links_per_spine must be >= 1";
  if (num_pods < 1) return "num_pods must be >= 1";
  if (num_leaves % num_pods != 0 || num_spines % num_pods != 0) {
    return "num_pods must divide num_leaves and num_spines";
  }
  if (num_pods > 1 ? num_cores < 1 : num_cores != 0) {
    return "num_cores must be >= 1 with pods and 0 without";
  }
  if (uplinks_per_leaf() > 16) {
    return "more than 16 uplinks per leaf: LBTag is a 4-bit field (paper "
           "§3.1: at most 12 uplinks in the reference configuration)";
  }
  if (host_link_bps <= 0 || fabric_link_bps <= 0) {
    return "link rates must be positive";
  }
  for (const LinkOverride& o : overrides) {
    if (o.leaf < 0 || o.leaf >= num_leaves) return "override: leaf out of range";
    if (o.spine < 0 || o.spine >= num_spines)
      return "override: spine out of range";
    if (o.parallel < 0 || o.parallel >= links_per_spine)
      return "override: parallel index out of range";
    if (pod_of_leaf(o.leaf) != pod_of_spine(o.spine))
      return "override: leaf and spine are in different pods";
    if (o.rate_factor < 0) return "override: negative rate factor";
  }
  for (const CoreLinkOverride& o : core_overrides) {
    if (o.spine < 0 || o.spine >= num_spines)
      return "core override: spine out of range";
    if (o.core < 0 || o.core >= num_cores)
      return "core override: core out of range";
    if (o.rate_factor < 0) return "core override: negative rate factor";
  }
  return {};
}

TopologyConfig testbed_baseline() {
  TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 32;
  cfg.links_per_spine = 2;  // 2 x 40G uplinks to each spine (Fig 7a)
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  return cfg;
}

TopologyConfig testbed_link_failure() {
  TopologyConfig cfg = testbed_baseline();
  // One of the two Leaf1 <-> Spine1 links is down (Fig 7b).
  cfg.overrides.push_back(LinkOverride{/*leaf=*/1, /*spine=*/1,
                                       /*parallel=*/1, /*rate_factor=*/0.0});
  return cfg;
}

}  // namespace conga::net
