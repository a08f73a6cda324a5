// LetFlow (Vanini et al., NSDI'17): flowlet switching with *no* congestion
// input — on flowlet expiry the next uplink is picked uniformly at random.
// The insight reproduced here is that flowlet gaps themselves are elastic:
// flows on congested paths naturally fragment into more flowlets and so get
// re-rolled more often, which passively shifts load away from congestion.
// Congestion awareness is exactly what separates CONGA from this baseline.
#pragma once

#include "core/flowlet_table.hpp"
#include "lb/flowlet_lb.hpp"

namespace conga::lb_ext {

/// LetFlow's flowlet gap. It is stated here rather than inherited from
/// FlowletTableConfig's default, so retuning CONGA's Tfl can never silently
/// retune LetFlow (per-policy gap ownership).
constexpr sim::TimeNs kLetFlowGap = sim::microseconds(500);

class LetFlowLb final : public lb::FlowletLb {
 public:
  explicit LetFlowLb(net::LeafSwitch& leaf)
      : FlowletLb(leaf, {.gap = kLetFlowGap}) {}

  std::string name() const override { return "LetFlow"; }

 private:
  int choose(const net::FlowKey& /*key*/, net::LeafId dst_leaf,
             sim::TimeNs /*now*/) override {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    return viable[leaf_.rng().index(static_cast<std::size_t>(n))];
  }
};

}  // namespace conga::lb_ext
