// Determinism trial helper (correctness tooling).
//
// Runs one experiment cell through workload::run_fct_experiment with passive
// digest instrumentation and returns two fingerprints of the run:
//  * an order-insensitive digest of the per-flow FCT records (did the run
//    produce the same *results*?), and
//  * an order-sensitive digest of the dispatch stream (did it produce them
//    via the same *schedule*?).
// Running the same config twice must yield identical digests of both kinds;
// a trace mismatch with matching FCTs pinpoints a hidden ordering dependence
// (wall clock, pointer order, unordered-container iteration) before it grows
// into a results divergence.
//
// Shared by tools/determinism_audit (the CI gate) and the determinism
// regression tests; the RunTap instrumentation is also chaos_audit's.
#pragma once

#include <cstdint>
#include <functional>

#include "net/fabric.hpp"
#include "stats/digest.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/experiment.hpp"

namespace conga::debug {

struct RunDigests {
  std::uint64_t fct = 0;     ///< order-insensitive FCT-record digest
  std::uint64_t trace = 0;   ///< order-sensitive event-trace digest
  std::uint64_t events = 0;  ///< events dispatched (quick divergence hint)
  std::uint64_t flows = 0;   ///< measured flows recorded
  /// Telemetry stream digest (0 without telemetry): fingerprints every
  /// recorded event, so an instrumentation-order divergence is caught even
  /// when the packet schedule digests still agree.
  std::uint64_t telemetry = 0;
  bool drained = false;      ///< all measured flows completed

  friend bool operator==(const RunDigests&, const RunDigests&) = default;
};

/// Passive instrumentation of one run: the order-sensitive dispatch digest,
/// the dispatch count, and a fully enabled telemetry sink with 64-entry
/// rings (its streaming digest covers every event, retained or not, so no
/// per-link history is held).
struct RunTap {
  RunTap() = default;
  RunTap(const RunTap&) = delete;  // wrap()'s hooks hold `this`
  RunTap& operator=(const RunTap&) = delete;

  stats::TraceDigest trace;
  std::uint64_t events = 0;
  telemetry::TraceSink sink{telemetry::TraceSinkConfig{64}};

  /// A fabric hook that installs the scheduler trace hook, attaches `sink`
  /// (when `telemetry` is set), and then calls `hook`, so policy modes and
  /// fault plans armed there run unchanged and are recorded.
  std::function<void(net::Fabric&)> wrap(
      std::function<void(net::Fabric&)> hook, bool telemetry = true);
};

/// Runs `cfg` via workload::run_fct_experiment with a RunTap wrapped around
/// cfg.fabric_hook and digests it. The sink is passive: `fct`, `trace` and
/// `events` do not depend on `telemetry`, and `fct` equals the plain run's
/// ExperimentResult::fct_digest.
RunDigests run_digest_trial(const workload::ExperimentConfig& cfg,
                            bool telemetry = true);

}  // namespace conga::debug
