// Declarative fault plans.
//
// A FaultPlan is data: a list of typed fault specifications with explicit
// targets and times, independent of any simulation instance. The
// FaultInjector executes a plan against a Fabric; the same plan replayed
// against an identically-seeded fabric reproduces the same fault schedule
// bit-for-bit, which is what lets the chaos auditor compare load-balancing
// policies under *identical* adversity.
//
// Times are absolute simulation times. A `stop` at or before `start` means
// the fault never clears (it persists through the drain). Plans that want a
// clean drain (every flow eventually completes) should clear their faults
// before the traffic stop time — make_random_plan() does.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace conga::fault {

/// A link that flaps: starting at `start` the (leaf, spine, parallel) pair
/// alternates down/up with exponentially distributed dwell times (a 2-state
/// Markov process), until `stop`, when it is restored for good. Each
/// transition goes through Fabric::fail/restore_fabric_link with
/// `detection_delay`, so flaps faster than the detection window exercise the
/// control plane's re-entrancy handling.
struct LinkFlapSpec {
  int leaf = 0;
  int spine = 0;
  int parallel = 0;
  sim::TimeNs mean_down_dwell = sim::microseconds(200);
  sim::TimeNs mean_up_dwell = sim::microseconds(500);
  sim::TimeNs detection_delay = sim::microseconds(100);
  sim::TimeNs start = 0;
  sim::TimeNs stop = 0;
};

/// Capacity degradation: the pair runs at `rate_scale` of nominal between
/// `start` and `stop`. The routing layer does not react (the link stays in
/// the forwarding tables) — only congestion-aware schemes can route around
/// it, which is exactly the paper's Fig 16 asymmetry scenario, induced at
/// runtime.
struct DegradeSpec {
  int leaf = 0;
  int spine = 0;
  int parallel = 0;
  double rate_scale = 0.1;  ///< fraction of nominal rate, in (0, 1]
  bool both_directions = true;
  sim::TimeNs start = 0;
  sim::TimeNs stop = 0;
};

/// Gray failure: the link stays "up" to the control plane but loses each
/// packet with `drop_prob` and corrupts each surviving packet with
/// `corrupt_prob` (discarded at the receiver, like a CRC failure). Draws
/// come from a per-spec keyed RNG stream, so the loss pattern is
/// reproducible and independent of traffic.
struct GrayFailureSpec {
  int leaf = 0;
  int spine = 0;
  int parallel = 0;
  double drop_prob = 0.01;
  double corrupt_prob = 0.0;
  bool both_directions = true;
  sim::TimeNs start = 0;
  sim::TimeNs stop = 0;
};

/// Switch reboot: every fabric link attached to the switch fails at `at` and
/// is restored at `at + outage` (each through the usual detection window).
/// For a leaf this severs all its uplinks — its hosts are unreachable until
/// the reboot completes and transports recover via RTO.
struct SwitchRebootSpec {
  enum class Kind : std::uint8_t { kLeaf = 0, kSpine = 1 };
  Kind kind = Kind::kSpine;
  int index = 0;
  sim::TimeNs at = 0;
  sim::TimeNs outage = sim::milliseconds(1);
  sim::TimeNs detection_delay = sim::microseconds(100);
};

/// Stale-feedback injection: between `start` and `stop` the chosen uplink
/// stops raising the CONGA CE field of packets it transmits, so remote
/// leaves keep acting on frozen congestion information for paths through it.
struct StaleFeedbackSpec {
  int leaf = 0;
  int spine = 0;
  int parallel = 0;
  sim::TimeNs start = 0;
  sim::TimeNs stop = 0;
};

using FaultSpec = std::variant<LinkFlapSpec, DegradeSpec, GrayFailureSpec,
                               SwitchRebootSpec, StaleFeedbackSpec>;

struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
  std::size_t size() const { return faults.size(); }

  FaultPlan& add(FaultSpec spec) {
    faults.push_back(spec);
    return *this;
  }
};

/// Knobs for make_random_plan(). Fault counts are drawn uniformly in
/// [min_faults, max_faults]; targets, kinds, and times uniformly over the
/// topology and [0, horizon), with every fault clearing by `horizon` so a
/// post-traffic drain can complete. Flaps and reboots keep their specs'
/// default detection delay.
struct RandomPlanConfig {
  int min_faults = 1;
  int max_faults = 4;
  sim::TimeNs horizon = sim::milliseconds(5);
};

/// Generates a randomized fault campaign over `topo`, deterministic in
/// `seed`. Used by tools/chaos_audit; also convenient for fuzz-style tests.
FaultPlan make_random_plan(const net::TopologyConfig& topo, std::uint64_t seed,
                           const RandomPlanConfig& cfg = {});

/// The gray-only campaign (the chaos_audit and campaign "gray" profile):
/// loss + corruption on 2-3 links drawn from `seed`, active over the whole
/// window [0, horizon), the control plane never told. Congestion-aware
/// schemes can at best route around the *retransmission* load; the survival
/// comparison (conga vs ecmp completed flows) is the Fig-16-style robustness
/// headline.
FaultPlan make_gray_plan(const net::TopologyConfig& topo, std::uint64_t seed,
                         sim::TimeNs horizon);

}  // namespace conga::fault
