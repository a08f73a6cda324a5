// determinism_audit — bit-reproducibility gate for the simulator.
//
// Runs one scenario N times (default 2) with identical seeds and compares,
// across runs:
//   * the order-insensitive FCT digest (per-flow results), and
//   * the order-sensitive event-trace digest (the exact dispatch schedule).
// Any dependence on wall clock, pointer order, ASLR, or unordered-container
// iteration shows up as a digest mismatch; exit status 1 makes it a CI gate.
//
// The default scenario is the fig09 enterprise-workload cell (baseline
// testbed topology, CONGA, 60% load) scaled to run in seconds.
//
// Flags:
//   --seed N          fabric seed (traffic seed is derived)   [default 1]
//   --runs N          number of identical runs to compare     [default 2]
//   --duration-ms N   measurement window                      [default 20]
//   --warmup-ms N     warmup before measurement               [default 5]
//   --hosts N         hosts per leaf                          [default 8]
//   --load F          offered load                            [default 0.6]
//   --lb NAME         any registered policy (lb_ext registry:
//                     ecmp, conga, letflow, drill, ...)       [default conga]
//   --workload NAME   enterprise|datamining|websearch|fixed:<bytes>
//                     (the ExperimentSpec names)              [default enterprise]
//   --jobs N          parallel-grid mode (see below)          [default 0 = off]
//
// The flags build a campaign::ExperimentSpec, and each run goes through
// workload::run_fct_experiment (via debug::run_digest_trial), so the audited
// cell is exactly what the campaign runner would simulate for that spec.
//
// Parallel-grid mode (--jobs N, N >= 2): instead of repeating one scenario,
// runs a grid of independent cells (the configured scenario at several loads
// and seeds) twice — once sequentially and once on N worker threads — and
// requires the per-cell FCT and event-trace digests to be byte-identical.
// This is the CI gate for the parallel experiment runner: any shared mutable
// simulation state between workers shows up as a digest mismatch (and as a
// TSan report in the sanitizer lane).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "cli_flags.hpp"
#include "debug/determinism.hpp"
#include "runtime/parallel_runner.hpp"

using namespace conga;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "determinism_audit: %s\n(see the header of "
               "tools/determinism_audit.cpp for flag documentation)\n",
               msg);
  std::exit(2);
}

/// Parallel-grid gate: per-cell digests must not depend on the jobs count.
int run_parallel_grid_audit(const campaign::ExperimentSpec& base, int jobs) {
  struct Cell {
    double load;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const double load : {0.3, 0.5, 0.7}) {
    for (std::uint64_t seed_off = 0; seed_off < 2; ++seed_off) {
      cells.push_back({load, base.fabric_seed + seed_off});
    }
  }

  auto run_cell = [&](std::size_t i) {
    campaign::ExperimentSpec s = base;
    s.load = cells[i].load;
    tools::set_seed(s, cells[i].seed);
    return debug::run_digest_trial(tools::resolve(s, usage));
  };

  std::printf("parallel-grid audit: %zu cells, jobs=1 vs jobs=%d\n",
              cells.size(), jobs);
  const std::vector<debug::RunDigests> seq =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 1, run_cell);
  const std::vector<debug::RunDigests> par =
      runtime::parallel_map<debug::RunDigests>(cells.size(), jobs, run_cell);

  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool same = seq[i] == par[i];
    std::printf("  cell %zu (load=%.2f seed=%llu): fct=%016llx "
                "trace=%016llx tele=%016llx events=%llu %s\n",
                i, cells[i].load,
                static_cast<unsigned long long>(cells[i].seed),
                static_cast<unsigned long long>(seq[i].fct),
                static_cast<unsigned long long>(seq[i].trace),
                static_cast<unsigned long long>(seq[i].telemetry),
                static_cast<unsigned long long>(seq[i].events),
                same ? "OK" : "MISMATCH");
    if (!same) {
      ok = false;
      std::fprintf(stderr,
                   "MISMATCH cell %zu: jobs=%d gave fct=%016llx "
                   "trace=%016llx tele=%016llx events=%llu\n",
                   i, jobs, static_cast<unsigned long long>(par[i].fct),
                   static_cast<unsigned long long>(par[i].trace),
                   static_cast<unsigned long long>(par[i].telemetry),
                   static_cast<unsigned long long>(par[i].events));
    }
  }
  std::printf("%s\n", ok ? "DETERMINISTIC: per-cell digests identical for "
                           "jobs=1 and jobs=N"
                         : "NON-DETERMINISTIC: parallel runner perturbed a "
                           "cell digest");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  campaign::ExperimentSpec s;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 8;
  s.warmup_ns = sim::milliseconds(5);
  s.measure_ns = sim::milliseconds(20);
  tools::set_seed(s, 1);
  int runs = 2;
  int jobs = 0;

  tools::FlagReader args(argc, argv, usage);
  args.each([&](const std::string& flag) {
    if (tools::cell_flag(args, flag, s)) return true;
    if (flag == "--runs") {
      runs = args.number<int>(2);
    } else if (flag == "--jobs") {
      jobs = args.number<int>();
    } else if (flag == "--lb") {
      s.policy = args.text();
    } else if (flag == "--workload") {
      s.dist = args.text();
    } else if (flag == "--help" || flag == "-h") {
      usage("usage");
    } else {
      return false;
    }
    return true;
  });

  // Resolving up front turns a bad --lb/--workload into a usage error
  // before any cell runs.
  const workload::ExperimentConfig cfg = tools::resolve(s, usage);
  if (jobs != 0) {
    if (jobs < 2) usage("--jobs must be >= 2 (or omitted)");
    // The grid sweeps loads itself; smaller per-cell windows keep the whole
    // grid comparable in cost to the classic two-run audit.
    s.warmup_ns = sim::milliseconds(2);
    s.measure_ns = std::min(s.measure_ns, sim::milliseconds(10));
    return run_parallel_grid_audit(s, jobs);
  }

  std::printf("determinism_audit: %s workload, lb=%s, load=%.2f, seed=%llu, "
              "%d runs\n",
              s.dist.c_str(), s.policy.c_str(), s.load,
              static_cast<unsigned long long>(s.fabric_seed), runs);

  std::vector<debug::RunDigests> results;
  for (int r = 0; r < runs; ++r) {
    results.push_back(debug::run_digest_trial(cfg));
    const auto& d = results.back();
    std::printf("  run %d: fct=%016llx trace=%016llx tele=%016llx "
                "events=%llu flows=%llu%s\n",
                r + 1, static_cast<unsigned long long>(d.fct),
                static_cast<unsigned long long>(d.trace),
                static_cast<unsigned long long>(d.telemetry),
                static_cast<unsigned long long>(d.events),
                static_cast<unsigned long long>(d.flows),
                d.drained ? "" : " (drain incomplete)");
  }

  bool ok = true;
  for (int r = 1; r < runs; ++r) {
    if (results[static_cast<std::size_t>(r)] == results[0]) continue;
    ok = false;
    const auto& d = results[static_cast<std::size_t>(r)];
    std::fprintf(stderr, "MISMATCH run %d vs run 1:%s%s%s%s\n", r + 1,
                 d.fct != results[0].fct ? " fct-digest" : "",
                 d.trace != results[0].trace ? " event-trace-digest" : "",
                 d.telemetry != results[0].telemetry ? " telemetry-digest"
                                                     : "",
                 d.events != results[0].events ? " event-count" : "");
  }
  std::printf("%s\n", ok ? "DETERMINISTIC: all runs identical"
                         : "NON-DETERMINISTIC: digest mismatch");
  return ok ? 0 : 1;
}
