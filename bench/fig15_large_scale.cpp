// Figure 15: large-scale simulations with the web-search workload, 40G
// fabric links and 3:1 oversubscription — (a) 10G access links (384
// servers), (b) 40G access links (96 servers). Reports overall average FCT
// normalised to ECMP.
//
// Paper shape: CONGA's win over ECMP is much larger when access speed is
// close to fabric speed (40G/40G: ~30% better even at 30% load) than with a
// 10G edge (5-10% at 30% load), because slow edges let each fabric link
// absorb several collided flows.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "fct_grid.hpp"

using namespace conga;

namespace {

struct Variant {
  const char* title;
  campaign::CampaignCase fabric;
};

Variant variant(const char* title, const char* name, double host_bps,
                int hosts_per_leaf, int leaves, int spines) {
  net::TopologyConfig topo;
  topo.num_leaves = leaves;
  topo.num_spines = spines;
  topo.hosts_per_leaf = hosts_per_leaf;
  topo.links_per_spine = 1;
  topo.host_link_bps = host_bps;
  topo.fabric_link_bps = 40e9;
  return {title, {name, topo}};
}

}  // namespace

int main(int argc, char** argv) {
  const auto [full, jobs] =
      bench::read_flags(argc, argv, /*takes_jobs=*/true);
  bench::print_header(
      "Fig 15 — large-scale web-search workload, 3:1 oversubscription", full,
      jobs);

  // Paper scale: 8 leaves x 48 x 10G / 12 spines... capped at what the
  // 4-bit LBTag allows with single links: 8 leaves, 12 spines.
  const std::vector<Variant> variants =
      full ? std::vector<Variant>{
                 variant("(a) 10G access links, 384 servers", "10g-access",
                         10e9, 48, 8, 4),
                 variant("(b) 40G access links, 96 servers", "40g-access",
                         40e9, 12, 8, 4)}
           : std::vector<Variant>{
                 variant("(a) 10G access links, 96 servers (scaled)",
                         "10g-access", 10e9, 24, 4, 2),
                 variant("(b) 40G access links, 24 servers (scaled)",
                         "40g-access", 40e9, 6, 4, 2)};

  campaign::CampaignSpec spec;
  spec.name = "fig15";
  spec.dist = "websearch";
  spec.policies = {"ecmp", "conga"};
  spec.loads_pct = full ? std::vector<int>{30, 40, 50, 60, 70, 80}
                        : std::vector<int>{30, 50, 70};
  for (const Variant& v : variants) spec.cases.push_back(v.fabric);
  spec.min_rto_ns = sim::milliseconds(10);
  spec.warmup_ns = sim::milliseconds(10);
  spec.measure_ns = full ? sim::milliseconds(150) : sim::milliseconds(60);
  spec.max_drain_ns = sim::seconds(2.0);
  const campaign::CampaignRun run = bench::run_campaign_or_exit(spec, jobs);

  // Cells run case -> policy -> load: per variant, the ECMP row then CONGA.
  const std::vector<int>& loads = spec.loads_pct;
  const std::size_t n_loads = loads.size();
  for (std::size_t c = 0; c < variants.size(); ++c) {
    const workload::ExperimentResult* ecmp = &run.results[2 * c * n_loads];
    const workload::ExperimentResult* conga = ecmp + n_loads;
    std::printf("\n===== %s =====\n", variants[c].title);
    std::printf("%-12s", "load(%)");
    for (int l : loads) std::printf("%10d", l);
    std::printf("\n");
    std::printf("%-12s", "ECMP");
    for (std::size_t i = 0; i < n_loads; ++i) std::printf("%10.2f", 1.0);
    std::printf("\n%-12s", "CONGA(avg)");
    for (std::size_t i = 0; i < n_loads; ++i) {
      std::printf("%10.2f", conga[i].avg_norm_fct / ecmp[i].avg_norm_fct);
    }
    std::printf("\n%-12s", "CONGA(med)");
    for (std::size_t i = 0; i < n_loads; ++i) {
      std::printf("%10.2f",
                  conga[i].median_norm_fct / ecmp[i].median_norm_fct);
    }
    std::printf("\n(FCT normalised to ECMP; < 1 means CONGA wins. avg is "
                "RTO-tail-sensitive\nat scaled sample sizes; med is the "
                "robust view.)\n");
  }
  return 0;
}
