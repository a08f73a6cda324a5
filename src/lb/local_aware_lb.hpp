// Local congestion-aware balancing (the strawman of §2.4, in the spirit of
// Flare / LocalFlow): picks, per flowlet, the uplink whose *local* DRE is
// least loaded, ignoring downstream congestion. The paper shows this is
// *worse than ECMP* under asymmetry (Fig 2b: 80 Gbps vs ECMP's 90), because
// TCP backing off on the constrained path makes the local link look idle and
// attracts yet more traffic. Included to reproduce that pathology.
#pragma once

#include "lb/flowlet_lb.hpp"

namespace conga::lb {

/// The first viable uplink with the strictly smallest `metric(uplink)`;
/// local schemes break ties by index, with no RNG draw.
template <class Metric>
int first_argmin(const net::LeafSwitch& leaf, net::LeafId dst_leaf,
                 Metric metric) {
  int viable[16];
  const int n = leaf.viable_uplinks(dst_leaf, viable);
  int best = -1;
  decltype(metric(0)) best_m{};
  for (int k = 0; k < n; ++k) {
    const auto m = metric(viable[k]);
    if (best < 0 || m < best_m) {
      best_m = m;
      best = viable[k];
    }
  }
  return best;
}

class LocalAwareLb final : public FlowletLb {
 public:
  explicit LocalAwareLb(net::LeafSwitch& leaf) : FlowletLb(leaf, {}) {}

  std::string name() const override { return "Local"; }

 private:
  int choose(const net::FlowKey& /*key*/, net::LeafId dst_leaf,
             sim::TimeNs now) override {
    return first_argmin(leaf_, dst_leaf, [&](int uplink) {
      return leaf_.uplinks()[static_cast<std::size_t>(uplink)]
          .link->dre()
          .utilization(now);
    });
  }
};

/// Strict equal-split local balancing (the LocalFlow / packet-scatter model
/// of §2.4): per flowlet, pick the uplink that has transmitted the fewest
/// bytes, enforcing an equal byte split regardless of downstream capacity.
/// This is the baseline for which the paper derives the 80-of-100G Fig 2(b)
/// equilibrium: the constrained path throttles its TCP flows, and equal
/// splitting then drags the healthy path down to the same rate.
class LocalEqualLb final : public FlowletLb {
 public:
  explicit LocalEqualLb(net::LeafSwitch& leaf) : FlowletLb(leaf, {}) {}

  std::string name() const override { return "LocalEq"; }

 private:
  int choose(const net::FlowKey& /*key*/, net::LeafId dst_leaf,
             sim::TimeNs /*now*/) override {
    return first_argmin(leaf_, dst_leaf, [&](int uplink) {
      return leaf_.uplinks()[static_cast<std::size_t>(uplink)]
          .link->bytes_sent();
    });
  }
};

}  // namespace conga::lb
