// Ready-made LoadBalancer factories for Fabric::install_lb.
//
// Each factory returns a callable creating one balancer per leaf; the
// experiment harnesses pass them around as values so a scenario can be
// re-run per scheme:
//
//   fabric.install_lb(lb::ecmp());
//   fabric.install_lb(core::conga());                       // Tfl = 500us
//   fabric.install_lb(core::conga(make_conga_flow_config()));  // CONGA-Flow
//
// The competitor schemes of src/lb_ext/ are built by name from the policy
// registry (lb_ext/policies.hpp): lb_ext::make_policy("letflow") for the
// leaf balancers alone, or install_policy(), which also installs a policy's
// spine balancers (Fabric::install_spine_lb).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/conga_lb.hpp"
#include "lb/ecmp_lb.hpp"
#include "lb/local_aware_lb.hpp"
#include "lb/spray_lb.hpp"
#include "lb/weighted_lb.hpp"
#include "net/fabric.hpp"

namespace conga::lb {

/// A factory building T(leaf, args...) on every leaf.
template <class T, class... Args>
net::Fabric::LbFactory per_leaf(Args... args) {
  return [args...](net::LeafSwitch& leaf, const net::TopologyConfig&,
                   std::uint64_t) -> std::unique_ptr<LoadBalancer> {
    return std::make_unique<T>(leaf, args...);
  };
}

/// The same for balancers with per-destination-leaf state, built as
/// T(leaf, num_leaves, args...).
template <class T, class... Args>
net::Fabric::LbFactory per_leaf_with_count(Args... args) {
  return [args...](net::LeafSwitch& leaf, const net::TopologyConfig& topo,
                   std::uint64_t) -> std::unique_ptr<LoadBalancer> {
    return std::make_unique<T>(leaf, topo.num_leaves, args...);
  };
}

inline net::Fabric::LbFactory ecmp() {
  return [](net::LeafSwitch& leaf, const net::TopologyConfig&,
            std::uint64_t seed) -> std::unique_ptr<LoadBalancer> {
    return std::make_unique<EcmpLb>(leaf, seed);
  };
}

inline net::Fabric::LbFactory spray() { return per_leaf<SprayLb>(); }

inline net::Fabric::LbFactory local_aware() { return per_leaf<LocalAwareLb>(); }

inline net::Fabric::LbFactory local_equal() { return per_leaf<LocalEqualLb>(); }

/// `weights` has one entry per uplink (same weights on every leaf).
inline net::Fabric::LbFactory weighted(std::vector<double> weights) {
  return per_leaf<WeightedLb>(std::move(weights));
}

}  // namespace conga::lb

namespace conga::core {

inline net::Fabric::LbFactory conga(CongaConfig cfg = {},
                                    std::string name = "CONGA") {
  return lb::per_leaf_with_count<CongaLb>(cfg, std::move(name));
}

/// CONGA-Flow: one congestion-aware decision per flow (§5 "Schemes
/// compared").
inline net::Fabric::LbFactory conga_flow() {
  return conga(make_conga_flow_config(), "CONGA-Flow");
}

}  // namespace conga::core
