// Figure 9: FCT statistics for the enterprise workload on the baseline
// testbed topology (Fig 7a: 2 leaves x 32 x 10G hosts, 2 spines, 2x40G
// uplinks each, 2:1 oversubscription), loads 10-90%.
//
// Paper shape: all schemes similar overall except MPTCP up to ~25% worse
// (driven by ~50% worse small-flow FCT); CONGA slightly worse than ECMP for
// small flows (~12-19% at 50-80% load) but up to ~20% better for large
// flows.
#include "bench_util.hpp"
#include "fct_grid.hpp"

using namespace conga;

int main(int argc, char** argv) {
  const auto [full, jobs] =
      bench::read_flags(argc, argv, /*takes_jobs=*/true);
  bench::print_header("Fig 9 — enterprise workload FCT (baseline topology)",
                      full, jobs);

  net::TopologyConfig topo = net::testbed_baseline();
  if (!full) topo.hosts_per_leaf = 16;  // scaled: 32 hosts total
  campaign::CampaignSpec spec;
  spec.name = "fig09";
  spec.cases = {{"baseline", topo}};
  spec.dist = "enterprise";
  spec.loads_pct = full ? std::vector<int>{10, 20, 30, 40, 50, 60, 70, 80, 90}
                        : std::vector<int>{10, 30, 50, 70, 90};
  spec.warmup_ns = sim::milliseconds(10);
  spec.measure_ns = full ? sim::milliseconds(200) : sim::milliseconds(50);
  spec.max_drain_ns = full ? sim::seconds(3.0) : sim::seconds(1.5);
  // The testbed ran Linux TCP (200 ms minRTO) for minutes; our scaled
  // windows need DC-granularity timers to avoid censoring entire runs on a
  // single timeout. EXPERIMENTS.md discusses the substitution.
  spec.min_rto_ns = sim::milliseconds(10);

  bench::run_and_print_grid(spec, jobs);
  return 0;
}
