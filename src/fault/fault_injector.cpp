#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

FaultInjector::FaultInjector(net::Fabric& fabric, std::uint64_t seed)
    : fabric_(fabric), sched_(fabric.scheduler()), rng_(seed) {}

void FaultInjector::arm(const FaultPlan& plan) {
  if (plan.empty()) return;
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& spec = plan.faults[i];
    if (const auto* f = std::get_if<LinkFlapSpec>(&spec)) {
      arm_flap(*f, i);
    } else if (const auto* d = std::get_if<DegradeSpec>(&spec)) {
      arm_degrade(*d);
    } else if (const auto* g = std::get_if<GrayFailureSpec>(&spec)) {
      arm_gray(*g, i);
    } else if (const auto* r = std::get_if<SwitchRebootSpec>(&spec)) {
      arm_reboot(*r);
    } else if (const auto* sf = std::get_if<StaleFeedbackSpec>(&spec)) {
      arm_stale(*sf);
    }
  }
  if (telemetry::TraceSink* sink = fabric_.telemetry()) {
    sink->probes().add_counter("fault/transitions",
                               [this] { return transitions_; });
  }
}

void FaultInjector::emit(telemetry::EventType type, std::uint64_t a,
                         std::uint64_t b) {
  telemetry::TraceSink* sink = fabric_.telemetry();
  if (sink == nullptr) return;
  if (!comp_interned_) {
    comp_ = sink->intern_component("fault_injector");
    comp_interned_ = true;
  }
  telemetry::emit(sink, type, comp_, sched_.now(), a, b);
}

void FaultInjector::arm_flap(const LinkFlapSpec& s, std::size_t index) {
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
  if (!st->down) {
    if (now >= s.stop) return;  // window over while up: flap is done
    fabric_.fail_fabric_link(s.leaf, s.spine, s.parallel, s.detection_delay);
    st->down = true;
    ++transitions_;
    emit(telemetry::EventType::kFaultLinkFlap, 1,
         pack_triple(s.leaf, s.spine, s.parallel));
    sched_.schedule_after(dwell(st->rng, s.mean_down_dwell),
                          [this, st] { flap_toggle(st); });
  } else {
    // Always leave the link up: the down->up edge runs even past `stop`.
    fabric_.restore_fabric_link(s.leaf, s.spine, s.parallel,
                                s.detection_delay);
    st->down = false;
    ++transitions_;
    emit(telemetry::EventType::kFaultLinkFlap, 0,
         pack_triple(s.leaf, s.spine, s.parallel));
    if (now >= s.stop) return;
    sched_.schedule_after(dwell(st->rng, s.mean_up_dwell),
                          [this, st] { flap_toggle(st); });
  }
}

void FaultInjector::arm_degrade(const DegradeSpec& s) {
  auto apply = [this, s](double scale) {
    if (net::Link* up = fabric_.up_link(s.leaf, s.spine, s.parallel)) {
      up->set_rate_scale(scale);
    }
    if (s.both_directions) {
      if (net::Link* dn = fabric_.down_link(s.spine, s.leaf, s.parallel)) {
        dn->set_rate_scale(scale);
      }
    }
  };
  const auto permille =
      static_cast<std::uint64_t>(std::llround(s.rate_scale * 1000.0));
  sched_.schedule_at(s.start, [this, apply, s, permille] {
    apply(s.rate_scale);
    ++transitions_;
    emit(telemetry::EventType::kFaultDegrade, 1, permille);
  });
  if (s.stop > s.start) {
    sched_.schedule_at(s.stop, [this, apply, permille] {
      apply(1.0);
      ++transitions_;
      emit(telemetry::EventType::kFaultDegrade, 0, permille);
    });
  }
}

void FaultInjector::arm_gray(const GrayFailureSpec& s, std::size_t index) {
  // Distinct streams for the two directions, so enabling the reverse
  // direction does not perturb the forward loss pattern.
  const std::uint64_t up_seed = rng_.stream_seed(kGrayStream | (index << 1));
  const std::uint64_t dn_seed =
      rng_.stream_seed(kGrayStream | (index << 1) | 1);
  const std::uint64_t detail = (ppm(s.drop_prob) << 32) | ppm(s.corrupt_prob);
  sched_.schedule_at(s.start, [this, s, up_seed, dn_seed, detail] {
    if (net::Link* up = fabric_.up_link(s.leaf, s.spine, s.parallel)) {
      up->set_gray_failure(s.drop_prob, s.corrupt_prob, up_seed);
    }
    if (s.both_directions) {
      if (net::Link* dn = fabric_.down_link(s.spine, s.leaf, s.parallel)) {
        dn->set_gray_failure(s.drop_prob, s.corrupt_prob, dn_seed);
      }
    }
    ++transitions_;
    emit(telemetry::EventType::kFaultGray, 1, detail);
  });
  if (s.stop > s.start) {
    sched_.schedule_at(s.stop, [this, s, detail] {
      if (net::Link* up = fabric_.up_link(s.leaf, s.spine, s.parallel)) {
        up->clear_gray_failure();
      }
      if (s.both_directions) {
        if (net::Link* dn = fabric_.down_link(s.spine, s.leaf, s.parallel)) {
          dn->clear_gray_failure();
        }
      }
      ++transitions_;
      emit(telemetry::EventType::kFaultGray, 0, detail);
    });
  }
}

void FaultInjector::set_switch_links(const SwitchRebootSpec& s, bool down) {
  const net::TopologyConfig& topo = fabric_.config();
  auto toggle = [this, &s, down](int leaf, int spine, int parallel) {
    if (fabric_.up_link(leaf, spine, parallel) == nullptr) return;
    if (down) {
      fabric_.fail_fabric_link(leaf, spine, parallel, s.detection_delay);
    } else {
      fabric_.restore_fabric_link(leaf, spine, parallel, s.detection_delay);
    }
  };
  if (s.kind == SwitchRebootSpec::Kind::kLeaf) {
    for (int sp = 0; sp < topo.num_spines; ++sp) {
      for (int p = 0; p < topo.links_per_spine; ++p) toggle(s.index, sp, p);
    }
  } else {
    for (int l = 0; l < topo.num_leaves; ++l) {
      for (int p = 0; p < topo.links_per_spine; ++p) toggle(l, s.index, p);
    }
  }
}

void FaultInjector::arm_reboot(const SwitchRebootSpec& s) {
  const std::uint64_t detail =
      (static_cast<std::uint64_t>(s.kind) << 16) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.index) &
                                 0xffffU);
  sched_.schedule_at(s.at, [this, s, detail] {
    set_switch_links(s, true);
    ++transitions_;
    emit(telemetry::EventType::kFaultSwitchReboot, 1, detail);
  });
  sched_.schedule_at(s.at + s.outage, [this, s, detail] {
    set_switch_links(s, false);
    ++transitions_;
    emit(telemetry::EventType::kFaultSwitchReboot, 0, detail);
  });
}

void FaultInjector::arm_stale(const StaleFeedbackSpec& s) {
  sched_.schedule_at(s.start, [this, s] {
    if (net::Link* up = fabric_.up_link(s.leaf, s.spine, s.parallel)) {
      up->set_ce_suppressed(true);
    }
    ++transitions_;
    emit(telemetry::EventType::kFaultStaleFeedback, 1,
         pack_triple(s.leaf, s.spine, s.parallel));
  });
  if (s.stop > s.start) {
    sched_.schedule_at(s.stop, [this, s] {
      if (net::Link* up = fabric_.up_link(s.leaf, s.spine, s.parallel)) {
        up->set_ce_suppressed(false);
      }
      ++transitions_;
      emit(telemetry::EventType::kFaultStaleFeedback, 0,
           pack_triple(s.leaf, s.spine, s.parallel));
    });
  }
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
