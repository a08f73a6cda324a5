// Open-loop Poisson traffic generator (paper §5.2).
//
// Flows arrive as a Poisson process with rate chosen so the *offered* load on
// each leaf's uplinks equals `load` (relative to the topology's nominal
// pre-failure capacity, as the paper does for Fig 11: "the bisection
// bandwidth ... is 75% of the original capacity; we only consider offered
// loads up to 70%"). Sources are uniform over hosts; destinations uniform
// over hosts under *other* leaves, so all generated traffic crosses the
// spine (the paper's setup: clients under Leaf 0 only use servers under
// Leaf 1 and vice versa).
//
// Flows are measured if they *arrive* inside [measure_start, measure_stop);
// their FCT is recorded at completion together with the idle-network optimal
// FCT for normalisation.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "sim/random.hpp"
#include "stats/fct_collector.hpp"
#include "tcp/flow.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::workload {

struct TrafficGenConfig {
  double load = 0.6;  ///< fraction of per-leaf nominal uplink capacity
  sim::TimeNs stop = sim::milliseconds(100);  ///< arrivals stop here
  sim::TimeNs measure_start = sim::milliseconds(10);
  sim::TimeNs measure_stop = sim::milliseconds(90);
  std::uint64_t seed = 7;

  /// Optional custom (src, dst) picker (e.g. "only leaf 1 to leaf 2" for the
  /// Fig 3 scenarios). Defaults to uniform source, uniform inter-leaf
  /// destination. Must return hosts on different leaves.
  std::function<std::pair<net::HostId, net::HostId>(sim::Rng&)> pair_picker;
};

class TrafficGenerator {
 public:
  TrafficGenerator(net::Fabric& fabric, tcp::FlowFactory factory,
                   const FlowSizeDist& dist, const TrafficGenConfig& cfg);

  /// Schedules the arrival process. Call before Scheduler::run*.
  void start();

  /// Attaches a flow monitor (e.g. debug::LivenessWatchdog): it is notified
  /// as flows launch and complete. Call before start(); nullptr detaches.
  void set_monitor(tcp::FlowMonitor* monitor) { monitor_ = monitor; }

  /// Folds every still-live measured flow into the collector's
  /// unfinished-flow accounting (count + bytes outstanding). Call once,
  /// after the drain has given up; live flows are iterated in id order so
  /// the accounting is deterministic.
  void account_unfinished();

  const stats::FctCollector& collector() const { return collector_; }
  std::uint64_t flows_started() const { return started_; }
  std::uint64_t measured_started() const { return measured_started_; }
  std::uint64_t measured_completed() const { return measured_completed_; }
  bool all_measured_complete() const {
    return measured_completed_ == measured_started_;
  }

  /// Total flow arrival rate (flows/sec) implied by the config.
  double arrival_rate() const { return lambda_; }

  /// Idle-network FCT for a flow of `size` bytes (used for normalisation).
  sim::TimeNs optimal_fct(std::uint64_t size) const;

 private:
  void schedule_next_arrival();
  void launch_flow();
  void on_flow_complete(std::uint64_t id, tcp::FlowHandle& flow);
  void reap();

  net::Fabric& fabric_;
  tcp::FlowFactory factory_;
  FlowSizeDist dist_;  ///< by value: callers often pass temporaries
  TrafficGenConfig cfg_;
  sim::Rng rng_;
  double lambda_;

  stats::FctCollector collector_;
  tcp::FlowMonitor* monitor_ = nullptr;
  std::unordered_map<std::uint64_t, std::unique_ptr<tcp::FlowHandle>> flows_;
  std::vector<std::uint64_t> dead_;
  bool reap_scheduled_ = false;
  std::uint64_t started_ = 0;
  std::uint64_t measured_started_ = 0;
  std::uint64_t measured_completed_ = 0;
};

/// Runs `sched` until arrivals stop, then drains until every measured flow
/// completes or `max_drain` more simulated time elapses. Returns true if the
/// drain completed (false = the network could not serve the offered load in
/// time, e.g. ECMP past the saturation point in Fig 11).
bool run_with_drain(sim::Scheduler& sched, TrafficGenerator& gen,
                    sim::TimeNs stop, sim::TimeNs max_drain);

}  // namespace conga::workload
