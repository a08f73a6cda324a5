// Probe registry and periodic sampler.
//
// A probe is a named read-only view onto a live component metric:
//  * counter — a monotonically nondecreasing std::uint64_t (bytes sent,
//    packets forwarded, retransmits). Sampled as (value, delta).
//  * gauge   — an instantaneous double (queue occupancy, DRE utilization).
//
// Probes cost nothing until a PeriodicSampler reads them: registration just
// stores a closure. The sampler keeps in-memory series (what the benches
// consume) and additionally records kCounterSample / kGaugeSample events
// into the TraceSink when the kProbe category is enabled, which is what the
// JSONL exporter and conga_trace slice.
//
// Sampling schedule: the first sample fires at `start` (counters use it as
// the delta baseline and contribute no delta), then every `interval` while
// now + interval <= end — the same schedule the old stats::QueueSampler
// used, so migrated benches reproduce their previous sample series exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "sim/scheduler.hpp"
#include "stats/summary.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::telemetry {

class ProbeRegistry {
 public:
  using GaugeFn = std::function<double()>;
  using CounterFn = std::function<std::uint64_t()>;

  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct Probe {
    std::string name;
    Kind kind;
    CounterFn counter;  ///< set when kind == kCounter
    GaugeFn gauge;      ///< set when kind == kGauge
  };

  /// Registers a probe; returns its dense index. Names should be unique
  /// ("<component>/<metric>"); a duplicate name replaces nothing and simply
  /// coexists (lookup returns the first).
  int add_counter(std::string name, CounterFn fn);
  int add_gauge(std::string name, GaugeFn fn);

  /// Index of the first probe named `name`, or -1.
  int find(std::string_view name) const;

  std::size_t size() const {
    thread_.check();
    return probes_.size();
  }
  const Probe& probe(int index) const {
    thread_.check();
    return probes_[static_cast<std::size_t>(index)];
  }

 private:
  // Thread-confined like the TraceSink that owns this registry: probes are
  // registered and sampled on the simulation's one thread (see
  // core::ThreadChecker).
  core::ThreadChecker thread_;
  std::vector<Probe> probes_ CONGA_GUARDED_BY(thread_);
};

/// Samples a set of probes on a fixed schedule. Series are always collected
/// in memory; trace events are additionally recorded when the sink's kProbe
/// category is enabled.
class PeriodicSampler {
 public:
  /// Samples `probe_indices` (empty = every probe registered in
  /// `sink.probes()` at construction time) every `interval` during
  /// [start, end]. The sampler must outlive the scheduler run.
  PeriodicSampler(sim::Scheduler& sched, TraceSink& sink, sim::TimeNs interval,
                  sim::TimeNs start, sim::TimeNs end,
                  std::vector<int> probe_indices = {});

  std::size_t probe_count() const { return probes_.size(); }

  /// Sample timestamps (shared by every probe).
  const std::vector<sim::TimeNs>& times() const { return times_; }

  /// Gauge probes: the sampled values. Counter probes: the per-interval
  /// deltas (one fewer entry than times(), since the first sample is the
  /// baseline).
  const std::vector<double>& series(std::size_t i) const {
    return series_[i];
  }

  /// Summary over series(i) — percentiles for gauge occupancy CDFs etc.
  stats::Summary summary(std::size_t i) const;

  /// Convenience: summary of the probe named `name` (aborts if absent).
  stats::Summary summary(std::string_view name) const;

  /// Spread across the sampled probes, one sample per interval:
  /// (MAX - MIN) / MEAN of the probes' values in percent, skipping intervals
  /// whose mean is 0. Over per-uplink tx_bytes counters this is the paper's
  /// Fig 12 throughput imbalance (§5.2).
  stats::Summary spread_pct() const;

 private:
  struct Sampled {
    int index;           ///< into the registry
    ComponentId comp;    ///< sink component ("probe:<name>")
    std::uint64_t last;  ///< previous counter value
    bool primed;         ///< counter baseline taken
  };

  void tick();

  sim::Scheduler& sched_;
  TraceSink& sink_;
  sim::TimeNs interval_;
  sim::TimeNs end_;
  std::vector<Sampled> probes_;
  std::vector<sim::TimeNs> times_;
  std::vector<std::vector<double>> series_;
};

}  // namespace conga::telemetry
