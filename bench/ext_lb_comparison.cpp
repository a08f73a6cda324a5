// Competitor load-balancer comparison (extension; companion to Fig 9/11).
//
// Sweeps every registered policy — ECMP, packet spray, local-only flowlets,
// LetFlow, DRILL, Presto, HULA-style probes, CONGA-Flow, CONGA — over the
// enterprise workload at 10–90% load, on the symmetric baseline testbed and
// on an asymmetric variant with one uplink degraded to 10% capacity (the
// Fig 2 regime where congestion-oblivious hashing collapses). Alongside the
// FCT panels it reports what each scheme pays: receiver-side reordering
// (out-of-order segments, worst reorder distance) and probe-plane overhead
// (control packets injected into the fabric).
//
// The sweep runs as a campaign on the content-addressed result store
// (src/campaign/): pass --store DIR and a rerun reuses every cell whose
// spec and build fingerprint are unchanged, so iterating on one policy
// re-simulates only that policy's cells. Without --store it computes
// everything, exactly as before.
//
// --out writes the campaign's conga-campaign-v2 report, which
// `conga_serve verdict` compares cell by cell against a baseline report. It
// is byte-identical across reruns, --jobs values, and cold/warm caches:
// cells are independent simulations committed in canonical grid order, and
// the file carries no timestamps, host state, or cache statistics.
//
// Flags: --full (paper scale), --jobs N, --out FILE (campaign report),
//        --load N (restrict to one load point — the CI smoke lane),
//        --store DIR (incremental reruns via the campaign cache).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

constexpr const char* kPolicies[] = {"ecmp",   "spray", "local",
                                     "letflow", "drill", "presto",
                                     "hula",   "conga-flow", "conga"};
constexpr std::size_t kNumPolicies = sizeof(kPolicies) / sizeof(kPolicies[0]);

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string store_dir;
  int only_load = 0;
  const auto [full, jobs] = bench::read_flags(
      argc, argv, /*takes_jobs=*/true,
      [&](tools::FlagReader& args, const std::string& flag) {
        if (flag == "--out") {
          out_path = args.text();
        } else if (flag == "--store") {
          store_dir = args.text();
        } else if (flag == "--load") {
          const std::string load = args.text();
          if (!tools::parse_int_flag(load, 1, only_load) || only_load > 100) {
            bench::usage(("bad --load " + load).c_str());
          }
        } else {
          return false;
        }
        return true;
      });
  bench::print_header(
      "Extension — competitor LB suite (LetFlow/DRILL/Presto/HULA vs CONGA)",
      full, jobs);

  net::TopologyConfig base = net::testbed_baseline();
  if (!full) base.hosts_per_leaf = 16;  // scaled: 32 hosts total
  net::TopologyConfig degraded = base;
  // One Leaf1<->Spine1 link at 10% capacity: asymmetry that hashing and
  // static weights cannot see but congestion-aware schemes route around.
  degraded.overrides.push_back(
      net::LinkOverride{/*leaf=*/1, /*spine=*/1, /*parallel=*/0,
                        /*rate_factor=*/0.1});

  std::vector<int> loads =
      full ? std::vector<int>{10, 20, 30, 40, 50, 60, 70, 80, 90}
           : std::vector<int>{10, 50, 90};
  if (only_load > 0) loads = {only_load};

  // The sweep as a campaign request. Seeds {1, 7} are run_fct_experiment's
  // defaults, and the grid order (case -> policy -> load) matches
  // expand_campaign's canonical order, so cell values and report layout are
  // unchanged from the pre-campaign version of this bench.
  campaign::CampaignSpec spec;
  spec.name = "ext-lb-comparison";
  spec.policies.assign(kPolicies, kPolicies + kNumPolicies);
  spec.loads_pct = loads;
  spec.cases = {{"symmetric", base}, {"degraded", degraded}};
  spec.min_rto_ns = sim::milliseconds(10);  // DC-granularity timers (Fig 9)
  spec.warmup_ns = sim::milliseconds(10);
  spec.measure_ns = full ? sim::milliseconds(200) : sim::milliseconds(50);
  spec.max_drain_ns = full ? sim::seconds(3.0) : sim::seconds(1.5);

  campaign::ResultStore store(store_dir);
  campaign::RunOptions opts;
  opts.jobs = jobs;
  opts.store = store_dir.empty() ? nullptr : &store;
  opts.verbose = true;

  campaign::CampaignRun run;
  std::string err;
  if (!campaign::run_campaign(spec, opts, run, err)) {
    std::fprintf(stderr, "ext_lb_comparison: %s\n", err.c_str());
    return 2;
  }
  if (opts.store != nullptr) {
    std::fprintf(stderr, "ext_lb_comparison: %s\n",
                 campaign::stats_json(run.stats).dump().c_str());
  }

  const std::size_t n_loads = loads.size();
  const std::size_t cells_per_case = kNumPolicies * n_loads;
  auto cell = [&](std::size_t c, std::size_t p,
                  std::size_t l) -> const workload::ExperimentResult& {
    return run.results[c * cells_per_case + p * n_loads + l];
  };

  for (std::size_t c = 0; c < spec.cases.size(); ++c) {
    std::printf("\n=== case: %s ===\n", spec.cases[c].name.c_str());

    std::printf("\n(a) overall average FCT, normalised to optimal\n");
    std::printf("%-12s", "load(%)");
    for (int load : loads) std::printf("%10d", load);
    std::printf("\n");
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      std::printf("%-12s", kPolicies[p]);
      for (std::size_t l = 0; l < n_loads; ++l) {
        std::printf("%10.2f", cell(c, p, l).avg_norm_fct);
      }
      std::printf("\n");
    }

    std::printf("\n(b) reordering ledger at the highest load "
                "(segments / worst distance / flows hit)\n");
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      const workload::ExperimentResult& r = cell(c, p, n_loads - 1);
      std::printf("%-12s%12" PRIu64 "%12" PRIu64 "%12" PRIu64 "\n",
                  kPolicies[p], r.reorder_segments, r.reorder_max_distance,
                  r.reordered_flows);
    }

    std::printf("\n(c) probe-plane overhead at the highest load "
                "(probes injected / consumed)\n");
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      const workload::ExperimentResult& r = cell(c, p, n_loads - 1);
      std::printf("%-12s%12" PRIu64 "%12" PRIu64 "\n", kPolicies[p],
                  r.probes_sent, r.probes_received);
    }
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ext_lb_comparison: cannot open %s\n",
                   out_path.c_str());
      return 2;
    }
    std::fputs(campaign::report_json(run).c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "ext_lb_comparison: wrote %s\n", out_path.c_str());
  }
  return 0;
}
