#include "fault/fault_plan.hpp"

#include <algorithm>

#include "sim/random.hpp"

namespace conga::fault {

namespace {
/// Upper bounds of a random gray failure's loss and corruption rates.
constexpr double kMaxGrayDropProb = 0.05;
constexpr double kMaxGrayCorruptProb = 0.02;

/// A spine in `leaf`'s pod: the only spines it has links to. On a 2-tier
/// fabric this is one draw over every spine.
int pod_spine(const net::TopologyConfig& topo, int leaf, sim::Rng& rng) {
  const int per_pod = topo.spines_per_pod();
  return topo.pod_of_leaf(leaf) * per_pod +
         static_cast<int>(rng.uniform_int(0, per_pod - 1));
}
}  // namespace

FaultPlan make_random_plan(const net::TopologyConfig& topo, std::uint64_t seed,
                           const RandomPlanConfig& cfg) {
  sim::Rng rng(seed);
  FaultPlan plan;
  const int n = static_cast<int>(
      rng.uniform_int(cfg.min_faults, std::max(cfg.min_faults,
                                               cfg.max_faults)));
  // A fault window [start, stop) drawn so that stop <= horizon: faults clear
  // before the drain, keeping randomized campaigns livable by construction.
  auto window = [&](sim::TimeNs& start, sim::TimeNs& stop) {
    const auto h = static_cast<double>(cfg.horizon);
    start = static_cast<sim::TimeNs>(rng.uniform(0.0, 0.6 * h));
    stop = static_cast<sim::TimeNs>(
        rng.uniform(static_cast<double>(start) + 0.05 * h, h));
  };
  auto triple = [&](int& leaf, int& spine, int& parallel) {
    leaf = static_cast<int>(rng.uniform_int(0, topo.num_leaves - 1));
    spine = pod_spine(topo, leaf, rng);
    parallel = static_cast<int>(rng.uniform_int(0, topo.links_per_spine - 1));
  };

  for (int i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        LinkFlapSpec s;
        triple(s.leaf, s.spine, s.parallel);
        window(s.start, s.stop);
        s.mean_down_dwell = static_cast<sim::TimeNs>(
            rng.uniform(static_cast<double>(sim::microseconds(50)),
                        static_cast<double>(sim::microseconds(500))));
        s.mean_up_dwell = static_cast<sim::TimeNs>(
            rng.uniform(static_cast<double>(sim::microseconds(100)),
                        static_cast<double>(sim::milliseconds(1))));
        plan.add(s);
        break;
      }
      case 1: {
        DegradeSpec s;
        triple(s.leaf, s.spine, s.parallel);
        window(s.start, s.stop);
        s.rate_scale = rng.uniform(0.05, 0.5);
        plan.add(s);
        break;
      }
      case 2: {
        GrayFailureSpec s;
        triple(s.leaf, s.spine, s.parallel);
        window(s.start, s.stop);
        s.drop_prob = rng.uniform(0.0, kMaxGrayDropProb);
        s.corrupt_prob = rng.uniform(0.0, kMaxGrayCorruptProb);
        plan.add(s);
        break;
      }
      case 3: {
        SwitchRebootSpec s;
        // Leaf reboots sever all of a rack's uplinks; spine reboots remove
        // one core switch. Both must end early enough to drain.
        s.kind = rng.chance(0.5) ? SwitchRebootSpec::Kind::kLeaf
                                 : SwitchRebootSpec::Kind::kSpine;
        s.index = static_cast<int>(rng.uniform_int(
            0, (s.kind == SwitchRebootSpec::Kind::kLeaf ? topo.num_leaves
                                                        : topo.num_spines) -
                   1));
        const auto h = static_cast<double>(cfg.horizon);
        s.at = static_cast<sim::TimeNs>(rng.uniform(0.0, 0.5 * h));
        s.outage = static_cast<sim::TimeNs>(
            rng.uniform(0.05 * h, std::min(0.25 * h,
                                           static_cast<double>(cfg.horizon -
                                                               s.at))));
        plan.add(s);
        break;
      }
      default: {
        StaleFeedbackSpec s;
        triple(s.leaf, s.spine, s.parallel);
        window(s.start, s.stop);
        plan.add(s);
        break;
      }
    }
  }
  return plan;
}

FaultPlan make_gray_plan(const net::TopologyConfig& topo, std::uint64_t seed,
                         sim::TimeNs horizon) {
  sim::Rng rng(seed);
  FaultPlan plan;
  const int n = static_cast<int>(rng.uniform_int(2, 3));
  for (int i = 0; i < n; ++i) {
    GrayFailureSpec s;
    s.leaf = static_cast<int>(rng.uniform_int(0, topo.num_leaves - 1));
    s.spine = pod_spine(topo, s.leaf, rng);
    s.parallel = static_cast<int>(rng.uniform_int(0, topo.links_per_spine - 1));
    s.drop_prob = rng.uniform(0.005, 0.03);
    s.corrupt_prob = rng.uniform(0.0, 0.01);
    s.start = 0;
    s.stop = horizon;
    plan.add(s);
  }
  return plan;
}

}  // namespace conga::fault
