#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "telemetry/probes.hpp"

namespace conga::fault {

namespace {

// RNG stream key classes for the injector's per-spec streams (fabric uses
// 1..3 for leaves/spines/LBs; the injector continues the registry).
constexpr std::uint64_t kFlapStream = 4ULL << 56;
constexpr std::uint64_t kGrayStream = 5ULL << 56;

std::uint64_t pack_triple(int leaf, int spine, int parallel) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf)) << 16) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(spine)) << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(parallel));
}

std::uint64_t ppm(double p) {
  return static_cast<std::uint64_t>(std::llround(p * 1e6));
}

sim::TimeNs dwell(sim::Rng& rng, sim::TimeNs mean) {
  const double d = rng.exponential(static_cast<double>(mean));
  return std::max<sim::TimeNs>(1, static_cast<sim::TimeNs>(d));
}

/// Fails (down = true) or restores one leaf-spine link pair.
void set_link(net::Fabric& fabric, int leaf, int spine, int parallel,
              bool down, sim::TimeNs detection_delay) {
  if (down) {
    fabric.fail_fabric_link(leaf, spine, parallel, detection_delay);
  } else {
    fabric.restore_fabric_link(leaf, spine, parallel, detection_delay);
  }
}

/// Calls `f(link, is_up)` on the up link of the spec's (leaf, spine,
/// parallel) pair, then on its down link when `both_directions`; a link
/// absent at build time is skipped.
template <class Spec, class F>
void for_pair(net::Fabric& fabric, const Spec& s, bool both_directions,
              F f) {
  if (net::Link* up = fabric.up_link(s.leaf, s.spine, s.parallel)) {
    f(*up, true);
  }
  if (!both_directions) return;
  if (net::Link* dn = fabric.down_link(s.spine, s.leaf, s.parallel)) {
    f(*dn, false);
  }
}

/// Fails (down = true) or restores every leaf-spine link pair attached to
/// the switch named by `s`.
void set_switch_links(net::Fabric& fabric, const SwitchRebootSpec& s,
                      bool down) {
  const net::TopologyConfig& topo = fabric.config();
  const bool leaf = s.kind == SwitchRebootSpec::Kind::kLeaf;
  for (int i = 0; i < (leaf ? topo.num_spines : topo.num_leaves); ++i) {
    const int l = leaf ? s.index : i;
    const int sp = leaf ? i : s.index;
    for (int p = 0; p < topo.links_per_spine; ++p) {
      if (fabric.up_link(l, sp, p) == nullptr) continue;
      set_link(fabric, l, sp, p, down, s.detection_delay);
    }
  }
}

}  // namespace

FaultInjector::FaultInjector(net::Fabric& fabric, std::uint64_t seed)
    : fabric_(fabric), sched_(fabric.scheduler()), rng_(seed) {}

void FaultInjector::arm(const FaultPlan& plan) {
  if (plan.empty()) return;
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    std::visit([&](const auto& spec) { arm_spec(spec, i); }, plan.faults[i]);
  }
  if (telemetry::TraceSink* sink = fabric_.telemetry()) {
    sink->probes().add_counter("fault/transitions",
                               [this] { return transitions_; });
  }
}

void FaultInjector::edge(telemetry::EventType type, bool on,
                         std::uint64_t detail) {
  ++transitions_;
  telemetry::TraceSink* sink = fabric_.telemetry();
  if (sink == nullptr) return;
  if (!comp_interned_) {
    comp_ = sink->intern_component("fault_injector");
    comp_interned_ = true;
  }
  telemetry::emit(sink, type, comp_, sched_.now(), on ? 1 : 0, detail);
}

void FaultInjector::arm_spec(const LinkFlapSpec& s, std::size_t index) {
  auto st = std::make_unique<FlapState>();
  st->spec = s;
  st->rng = sim::Rng(rng_.stream_seed(kFlapStream | index));
  FlapState* p = st.get();
  flaps_.push_back(std::move(st));
  sched_.schedule_at(s.start, [this, p] { flap_toggle(p); });
}

void FaultInjector::flap_toggle(FlapState* st) {
  const LinkFlapSpec& s = st->spec;
  const sim::TimeNs now = sched_.now();
  if (!st->down && now >= s.stop) return;  // window over while up: done
  // Always leave the link up: the down->up edge runs even past `stop`.
  st->down = !st->down;
  set_link(fabric_, s.leaf, s.spine, s.parallel, st->down,
           s.detection_delay);
  edge(telemetry::EventType::kFaultLinkFlap, st->down,
       pack_triple(s.leaf, s.spine, s.parallel));
  if (now >= s.stop) return;
  sched_.schedule_after(
      dwell(st->rng, st->down ? s.mean_down_dwell : s.mean_up_dwell),
      [this, st] { flap_toggle(st); });
}

void FaultInjector::arm_window(sim::TimeNs start, sim::TimeNs stop,
                               bool clears, telemetry::EventType type,
                               std::uint64_t detail,
                               std::function<void(bool)> apply) {
  auto toggle = [this, type, detail, apply = std::move(apply)](bool on) {
    apply(on);
    edge(type, on, detail);
  };
  sched_.schedule_at(start, [toggle] { toggle(true); });
  if (clears) sched_.schedule_at(stop, [toggle] { toggle(false); });
}

void FaultInjector::arm_spec(const DegradeSpec& s, std::size_t /*index*/) {
  const auto permille =
      static_cast<std::uint64_t>(std::llround(s.rate_scale * 1000.0));
  arm_window(s.start, s.stop, s.stop > s.start,
             telemetry::EventType::kFaultDegrade, permille,
             [this, s](bool on) {
               for_pair(fabric_, s, s.both_directions,
                        [&](net::Link& link, bool) {
                          link.set_rate_scale(on ? s.rate_scale : 1.0);
                        });
             });
}

void FaultInjector::arm_spec(const GrayFailureSpec& s, std::size_t index) {
  // Distinct streams for the two directions, so enabling the reverse
  // direction does not perturb the forward loss pattern.
  const std::uint64_t up_seed = rng_.stream_seed(kGrayStream | (index << 1));
  const std::uint64_t dn_seed =
      rng_.stream_seed(kGrayStream | (index << 1) | 1);
  const std::uint64_t detail = (ppm(s.drop_prob) << 32) | ppm(s.corrupt_prob);
  arm_window(s.start, s.stop, s.stop > s.start,
             telemetry::EventType::kFaultGray, detail,
             [this, s, up_seed, dn_seed](bool on) {
               for_pair(fabric_, s, s.both_directions,
                        [&](net::Link& link, bool up) {
                          if (on) {
                            link.set_gray_failure(s.drop_prob, s.corrupt_prob,
                                                  up ? up_seed : dn_seed);
                          } else {
                            link.clear_gray_failure();
                          }
                        });
             });
}

void FaultInjector::arm_spec(const SwitchRebootSpec& s,
                             std::size_t /*index*/) {
  const std::uint64_t detail =
      (static_cast<std::uint64_t>(s.kind) << 16) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.index) &
                                 0xffffU);
  // The end is always scheduled, even for an outage <= 0.
  arm_window(s.at, s.at + s.outage, /*clears=*/true,
             telemetry::EventType::kFaultSwitchReboot, detail,
             [this, s](bool on) { set_switch_links(fabric_, s, on); });
}

void FaultInjector::arm_spec(const StaleFeedbackSpec& s,
                             std::size_t /*index*/) {
  arm_window(s.start, s.stop, s.stop > s.start,
             telemetry::EventType::kFaultStaleFeedback,
             pack_triple(s.leaf, s.spine, s.parallel), [this, s](bool on) {
               for_pair(fabric_, s, /*both_directions=*/false,
                        [on](net::Link& link, bool) {
                          link.set_ce_suppressed(on);
                        });
             });
}

std::function<void(net::Fabric&)> arming_hook(FaultPlan plan,
                                              std::uint64_t seed) {
  auto holder = std::make_shared<std::unique_ptr<FaultInjector>>();
  return [plan = std::move(plan), seed, holder](net::Fabric& fabric) {
    *holder = std::make_unique<FaultInjector>(fabric, seed);
    (*holder)->arm(plan);
  };
}

}  // namespace conga::fault
