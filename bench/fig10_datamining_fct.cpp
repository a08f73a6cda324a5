// Figure 10: FCT statistics for the data-mining workload (very heavy tail)
// on the baseline topology.
//
// Paper shape: ECMP noticeably worse at high load (the heavy tail makes
// hash collisions costly); CONGA and MPTCP up to ~35% better overall;
// MPTCP still degrades small flows.
#include "bench_util.hpp"
#include "fct_grid.hpp"

using namespace conga;

int main(int argc, char** argv) {
  const auto [full, jobs] =
      bench::read_flags(argc, argv, /*takes_jobs=*/true);
  bench::print_header("Fig 10 — data-mining workload FCT (baseline topology)",
                      full, jobs);

  net::TopologyConfig topo = net::testbed_baseline();
  if (!full) topo.hosts_per_leaf = 16;
  campaign::CampaignSpec spec;
  spec.name = "fig10";
  spec.cases = {{"baseline", topo}};
  spec.dist = "datamining";
  spec.loads_pct = full ? std::vector<int>{10, 20, 30, 40, 50, 60, 70, 80, 90}
                        : std::vector<int>{10, 30, 50, 70, 90};
  spec.warmup_ns = sim::milliseconds(10);
  // The heavy tail needs a longer window for meaningful flow counts, and a
  // long drain so the multi-MB flows finish (1 GB outliers are censored; the
  // completion table reports how many).
  spec.measure_ns = full ? sim::milliseconds(400) : sim::milliseconds(100);
  spec.max_drain_ns = full ? sim::seconds(5.0) : sim::seconds(2.0);
  spec.min_rto_ns = sim::milliseconds(10);

  bench::run_and_print_grid(spec, jobs);
  return 0;
}
