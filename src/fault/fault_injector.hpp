// FaultInjector: executes a FaultPlan against a Fabric.
//
// arm() walks the plan and schedules every fault transition on the fabric's
// scheduler. Link flaps run as per-spec Markov on/off state machines whose
// dwell times come from keyed RNG streams (Rng::stream_seed of the injector
// seed and the spec index), so the fault schedule is a pure function of
// (plan, seed) — independent of traffic, and bit-reproducible across runs
// and across worker threads of the parallel experiment runner.
//
// Strictly pay-for-what-you-use: constructing an injector and arming an
// empty plan schedules nothing, draws no randomness, and interns no
// telemetry components, so a run with no faults is bit-identical to a run
// without an injector (the seed-corpus digests prove it).
//
// Every transition the injector applies is counted (transitions()) and
// emitted as a kFault* telemetry event under the "fault_injector" component;
// the induced link/routing changes additionally emit their own kLink*
// events from the layers that perform them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "sim/random.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::fault {

class FaultInjector {
 public:
  /// `seed` is the root of the injector's keyed RNG streams; campaigns that
  /// must be comparable across policies pass the same seed (and plan).
  FaultInjector(net::Fabric& fabric, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every fault in `plan`. Normally called once, before the
  /// simulation runs (all spec times are absolute). An empty plan is a
  /// complete no-op.
  void arm(const FaultPlan& plan);

  /// Fault transitions applied so far (assert + clear each count as one).
  std::uint64_t transitions() const { return transitions_; }

 private:
  struct FlapState {
    LinkFlapSpec spec;
    sim::Rng rng{0};
    bool down = false;
  };

  /// Schedules plan.faults[index]; flaps and gray failures key their RNG
  /// streams off the index.
  void arm_spec(const LinkFlapSpec& s, std::size_t index);
  void arm_spec(const DegradeSpec& s, std::size_t index);
  void arm_spec(const GrayFailureSpec& s, std::size_t index);
  void arm_spec(const SwitchRebootSpec& s, std::size_t index);
  void arm_spec(const StaleFeedbackSpec& s, std::size_t index);
  void flap_toggle(FlapState* st);

  /// One fault window: `apply(true)` at `start` and, when `clears`,
  /// `apply(false)` at `stop`, each followed by its edge().
  void arm_window(sim::TimeNs start, sim::TimeNs stop, bool clears,
                  telemetry::EventType type, std::uint64_t detail,
                  std::function<void(bool)> apply);
  /// Counts one transition and emits `type` with a = 1 (applied) or 0
  /// (lifted) and b = `detail`.
  void edge(telemetry::EventType type, bool on, std::uint64_t detail);

  net::Fabric& fabric_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<FlapState>> flaps_;
  std::uint64_t transitions_ = 0;
  bool comp_interned_ = false;
  telemetry::ComponentId comp_ = 0;
};

/// A fabric hook (workload::ExperimentConfig::fabric_hook) that arms `plan`
/// on a fresh injector seeded with `seed` each time it runs. The hook and
/// its copies own the injector, so keep one alive through the run, as
/// workload::Experiment keeps its copy of the config's hook.
std::function<void(net::Fabric&)> arming_hook(FaultPlan plan,
                                              std::uint64_t seed);

}  // namespace conga::fault
