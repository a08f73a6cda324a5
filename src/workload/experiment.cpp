#include "workload/experiment.hpp"

#include "stats/digest.hpp"

namespace conga::workload {

Experiment::Experiment(const ExperimentConfig& cfg)
    : hook_(cfg.fabric_hook),
      stop_(cfg.warmup + cfg.measure),
      max_drain_(cfg.max_drain),
      fabric_(sched_, cfg.topo, cfg.fabric_seed) {
  fabric_.install_lb(cfg.lb);
  if (hook_) hook_(fabric_);

  TrafficGenConfig gen_cfg;
  gen_cfg.load = cfg.load;
  gen_cfg.stop = stop_;
  gen_cfg.measure_start = cfg.warmup;
  gen_cfg.measure_stop = stop_;
  gen_cfg.seed = cfg.traffic_seed;
  gen_.emplace(fabric_,
               cfg.transport ? cfg.transport : tcp::make_tcp_flow_factory({}),
               cfg.dist, gen_cfg);
}

ExperimentResult Experiment::run() {
  gen_->start();

  ExperimentResult r;
  r.drained = run_with_drain(sched_, *gen_, stop_, max_drain_);
  if (!r.drained) gen_->account_unfinished();

  const stats::FctCollector& c = gen_->collector();
  r.avg_norm_fct = c.avg_normalized_fct();
  r.median_norm_fct = c.median_normalized_fct();
  r.p99_norm_fct = c.p99_normalized_fct();
  r.avg_fct_small = c.avg_fct_small();
  r.avg_fct_large = c.avg_fct_large();
  r.avg_fct_overall = c.avg_fct_overall();
  r.flows = c.count();
  r.small_flows = c.count_in(0, stats::FctCollector::kSmallFlowBytes);
  r.large_flows = c.count_in(stats::FctCollector::kLargeFlowBytes, UINT64_MAX);
  r.completed_fraction =
      gen_->measured_started() == 0
          ? 1.0
          : static_cast<double>(gen_->measured_completed()) /
                static_cast<double>(gen_->measured_started());
  r.unfinished_flows = c.unfinished_count();
  r.bytes_outstanding = c.bytes_outstanding();
  r.fct_digest = stats::fct_digest(c);
  r.reorder_segments = c.reorder_segments();
  r.reorder_max_distance = c.reorder_max_distance();
  r.reordered_flows = c.reordered_flows();
  for (int l = 0; l < fabric_.num_leaves(); ++l) {
    r.probes_sent += fabric_.leaf(l).probes_to_fabric();
    r.probes_received += fabric_.leaf(l).probes_from_fabric();
  }
  return r;
}

ExperimentResult run_fct_experiment(const ExperimentConfig& cfg) {
  return Experiment(cfg).run();
}

}  // namespace conga::workload
