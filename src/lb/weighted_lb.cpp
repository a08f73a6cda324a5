#include "lb/weighted_lb.hpp"

#include <numeric>

namespace conga::lb {

WeightedLb::WeightedLb(net::LeafSwitch& leaf, std::vector<double> weights)
    : FlowletLb(leaf, {}) {
  // Weights are stated for a leaf with the full uplink complement; a leaf
  // that lost uplinks (failures) falls back to an equal split — a static
  // scheme has no principled way to redistribute them anyway (§2.4).
  if (weights.size() != leaf.uplinks().size()) {
    weights.assign(leaf.uplinks().size(), 1.0);
  }
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    weights.assign(leaf.uplinks().size(), 1.0);
    total = static_cast<double>(weights.size());
  }
  // Each share is a difference of the normalized CDF, whose last point is
  // pinned to 1 against rounding.
  share_.resize(weights.size());
  double acc = 0.0;
  double prev = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    const double cdf = i + 1 == weights.size() ? 1.0 : acc;
    share_[i] = cdf - prev;
    prev = cdf;
  }
}

int WeightedLb::choose(const net::FlowKey& /*key*/, net::LeafId dst_leaf,
                       sim::TimeNs /*now*/) {
  // Draw proportionally to the weights of the uplinks that can reach the
  // destination (the static weights renormalize over survivors).
  int viable[16];
  const int n = leaf_.viable_uplinks(dst_leaf, viable);
  double total = 0;
  for (int k = 0; k < n; ++k) {
    total += share_[static_cast<std::size_t>(viable[k])];
  }
  double u = leaf_.rng().uniform() * total;
  int chosen = -1;
  for (int k = 0; k < n; ++k) {
    chosen = viable[k];
    u -= share_[static_cast<std::size_t>(chosen)];
    if (u <= 0) break;
  }
  return chosen;
}

}  // namespace conga::lb
