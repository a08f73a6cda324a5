// Figure 11: impact of a link failure (Fig 7b: one of the Leaf1-Spine1 40G
// links down, 3 of 4 uplinks remain). Loads 10-70% only (bisection is 75% of
// nominal).
//
// Paper shape: ECMP deteriorates drastically past 50% load (half the
// Leaf0->Leaf1 traffic still hashes through Spine 1, whose single surviving
// link becomes oversubscribed at 2x); adaptive schemes shift away. CONGA is
// most robust (up to ~30% better than MPTCP on enterprise, ~2x on
// data-mining at 70%), and part (c) shows CONGA keeps the hotspot queue
// [Spine1->Leaf1] ~4x shorter at the 90th percentile.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "campaign/experiment_spec.hpp"
#include "fct_grid.hpp"

using namespace conga;

namespace {

void hotspot_queue_cdf(bool full) {
  std::printf("\n(c) queue occupancy CDF at the hotspot [Spine1->Leaf1], "
              "data-mining @ 60%% load\n");
  const std::vector<double> percentiles = {10, 25, 50, 75, 90, 99};
  std::printf("%-12s", "pct");
  for (double p : percentiles) std::printf("%11.0f", p);
  std::printf("  (queue KB)\n");

  for (const auto& [name, policy] : {std::pair{"ECMP", "ecmp"},
                                     std::pair{"CONGA-Flow", "conga-flow"},
                                     std::pair{"CONGA", "conga"}}) {
    const campaign::ExperimentSpec spec = campaign::hotspot_spec(
        policy, full ? 32 : 16,
        full ? sim::milliseconds(300) : sim::milliseconds(80));
    // Probe-only mask: the bench consumes the in-memory series; masking the
    // per-packet categories keeps the run lean (tools/conga_trace records the
    // same scenario with everything enabled).
    telemetry::TraceSinkConfig sink_cfg;
    sink_cfg.category_mask =
        telemetry::category_bit(telemetry::Category::kProbe);
    telemetry::TraceSink sink(sink_cfg);
    stats::Summary occ;
    std::string err;
    if (!campaign::run_hotspot(spec, sink, occ, err)) {
      std::fprintf(stderr, "fig11: %s\n", err.c_str());
      std::exit(2);
    }
    std::printf("%-12s", name);
    for (double p : percentiles) {
      std::printf("%11.1f", occ.percentile(p) / 1e3);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto [full, jobs] =
      bench::read_flags(argc, argv, /*takes_jobs=*/true);
  bench::print_header("Fig 11 — impact of link failure (asymmetric testbed)",
                      full, jobs);

  for (const bool mining : {false, true}) {
    std::printf("\n===== %s workload =====\n",
                mining ? "data-mining" : "enterprise");
    net::TopologyConfig topo = net::testbed_link_failure();
    if (!full) topo.hosts_per_leaf = 16;
    campaign::CampaignSpec spec;
    spec.name = mining ? "fig11-datamining" : "fig11-enterprise";
    spec.cases = {{"link-failure", topo}};
    spec.dist = mining ? "datamining" : "enterprise";
    spec.loads_pct = full ? std::vector<int>{10, 20, 30, 40, 50, 60, 70}
                          : std::vector<int>{10, 30, 50, 60, 70};
    spec.warmup_ns = sim::milliseconds(10);
    spec.measure_ns = full ? sim::milliseconds(200)
                           : (mining ? sim::milliseconds(80)
                                     : sim::milliseconds(50));
    spec.max_drain_ns = full ? sim::seconds(5.0) : sim::seconds(2.0);
    spec.min_rto_ns = sim::milliseconds(10);
    bench::run_and_print_grid(spec, jobs);
  }

  hotspot_queue_cdf(full);
  return 0;
}
