// Reusable FCT-experiment harness: one (topology, workload, load, scheme,
// transport) cell of the paper's evaluation grid, with warmup, a measurement
// window, and a bounded drain. The fig09/10/11/15 benches reach it through
// campaigns (campaign::run_spec); chaos_audit, conga_sim, conga_trace record,
// the fig11(c)/12/16 loops and ext_failure_recovery hold an Experiment to
// attach monitors, samplers and scheduled faults before the run and read the
// fabric after it; the ablation bench calls run_fct_experiment directly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/fabric.hpp"
#include "stats/fct_collector.hpp"
#include "tcp/flow.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace conga::workload {

struct ExperimentConfig {
  net::TopologyConfig topo;
  FlowSizeDist dist = fixed_size(100'000);
  double load = 0.6;
  tcp::FlowFactory transport;  ///< defaults to plain TCP if empty
  net::Fabric::LbFactory lb;   ///< required
  sim::TimeNs warmup = sim::milliseconds(10);
  sim::TimeNs measure = sim::milliseconds(40);
  sim::TimeNs max_drain = sim::seconds(1.0);
  std::uint64_t fabric_seed = 1;
  std::uint64_t traffic_seed = 7;

  /// Called after install_lb, before traffic starts — for fabric state a
  /// plain LbFactory cannot reach (e.g. Fabric::install_spine_lb for a
  /// policy's spine half, or link degradation for asymmetric cells).
  std::function<void(net::Fabric&)> fabric_hook;
};

struct ExperimentResult {
  double avg_norm_fct = 0;    ///< overall mean FCT / optimal
  double median_norm_fct = 0; ///< tail-robust companion to the mean
  double p99_norm_fct = 0;
  double avg_fct_small = 0;   ///< seconds, flows < 100 KB
  double avg_fct_large = 0;   ///< seconds, flows > 10 MB
  double avg_fct_overall = 0; ///< seconds
  std::size_t flows = 0;
  std::size_t small_flows = 0;
  std::size_t large_flows = 0;
  double completed_fraction = 0;  ///< measured flows that finished in time
  bool drained = false;           ///< all measured flows completed
  std::size_t unfinished_flows = 0;     ///< measured flows still live
  std::uint64_t bytes_outstanding = 0;  ///< their undelivered bytes
  std::uint64_t fct_digest = 0;  ///< order-insensitive digest of the records

  // Reordering ledger over measured flows (receiver-side cost of
  // per-packet / per-flowcell schemes).
  std::uint64_t reorder_segments = 0;
  std::uint64_t reorder_max_distance = 0;
  std::uint64_t reordered_flows = 0;

  // Probe-plane overhead: control packets the leaves injected / consumed
  // (zero for every policy without a probe plane).
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_received = 0;
};

/// One cell, built but not yet run. The constructor builds the scheduler
/// and fabric, installs cfg.lb, calls cfg.fabric_hook and constructs the
/// Poisson generator (arrivals in [0, warmup + measure), measured in
/// [warmup, warmup + measure), seeded with cfg.traffic_seed); nothing is
/// scheduled by the generator until run(). Between the two, callers attach
/// what the config cannot express: a flow monitor, a sampler, a sink.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& cfg);
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  sim::Scheduler& scheduler() { return sched_; }
  net::Fabric& fabric() { return fabric_; }
  TrafficGenerator& generator() { return *gen_; }

  /// Starts the generator, runs to the end of arrivals, drains for at most
  /// cfg.max_drain, folds still-live measured flows into the unfinished
  /// accounting, and summarizes. Call once; the fabric stays readable.
  ExperimentResult run();

 private:
  /// Copy of cfg.fabric_hook: it may own state the run uses (a fault
  /// injector), so it lives as long as the experiment.
  std::function<void(net::Fabric&)> hook_;
  sim::TimeNs stop_;
  sim::TimeNs max_drain_;
  sim::Scheduler sched_;
  net::Fabric fabric_;
  std::optional<TrafficGenerator> gen_;  ///< built once the hook has run
};

/// Runs one experiment cell to completion and summarizes it:
/// Experiment(cfg).run().
ExperimentResult run_fct_experiment(const ExperimentConfig& cfg);

}  // namespace conga::workload
