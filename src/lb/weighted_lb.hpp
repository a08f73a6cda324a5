// Static weighted random balancing (oblivious routing, §2.4): each flowlet
// picks uplink i with probability weight_i. With weights proportional to
// downstream capacity this fixes Fig 2's asymmetry — but, as Fig 3 shows, no
// static weighting can be right for every traffic matrix, which is the
// paper's argument for congestion feedback. Included to reproduce Fig 3.
#pragma once

#include <vector>

#include "lb/flowlet_lb.hpp"

namespace conga::lb {

class WeightedLb final : public FlowletLb {
 public:
  /// `weights` has one non-negative entry per leaf uplink; any other size
  /// (or an all-zero list) is an equal split.
  WeightedLb(net::LeafSwitch& leaf, std::vector<double> weights);

  std::string name() const override { return "Weighted"; }

 private:
  int choose(const net::FlowKey& key, net::LeafId dst_leaf,
             sim::TimeNs now) override;

  std::vector<double> share_;  ///< normalized weight per uplink
};

}  // namespace conga::lb
