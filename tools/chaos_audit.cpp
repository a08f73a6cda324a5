// chaos_audit — randomized fault campaigns across every LB policy.
//
// For each campaign a fault plan is drawn (deterministically from the seed)
// and executed against an identical scenario once per load-balancing policy
// (by default every registered policy but local-eq: ecmp, conga,
// conga-flow, spray, local, letflow, drill, presto, hula). Each cell
// runs with the liveness watchdog attached and is checked after the drain:
//   * conservation — every link's packet ledger must balance: offered ==
//     drops-by-cause + resident + in-flight + delivered;
//   * liveness     — flows that stopped making forward progress are counted
//     (stall reports; a stalled flow that never finishes also shows up as
//     unfinished with bytes outstanding);
//   * invariants   — any CONGA_CHECK_INVARIANTS violation aborts the audit
//     loudly via the default handler.
// Each cell is a campaign::ExperimentSpec (fault = {profile, seed +
// campaign}) run through workload::Experiment, so a bad --load, --hosts or
// window exits 2 with the spec's message before any cell runs.
// Results land in a JSON survival report (--out). The report is a pure
// function of the flags: rerunning with the same seed — at any --jobs count
// — must produce a byte-identical file, which makes the audit itself
// auditable.
//
// Flags:
//   --seed N        base seed; campaign c uses seed+c       [default 1]
//   --campaigns N   number of fault campaigns               [default 3]
//   --jobs N        worker threads over campaign x policy   [default 1]
//   --out FILE      survival report path                    [default chaos_survival.json]
//   --profile NAME  random | gray                           [default random]
//   --hosts N       hosts per leaf                          [default 4]
//   --duration-ms N measurement window                      [default 5]
//   --warmup-ms N   warmup before measurement               [default 1]
//   --drain-ms N    max drain after arrivals stop           [default 1000]
//   --load F        offered load                            [default 0.5]
//   --lb LIST       comma-separated policy subset to audit  [default: all]
//
// The "gray" profile draws gray-failure faults only (Bernoulli loss +
// corruption on a few links), the scenario behind the CONGA-vs-ECMP
// survival comparison; "random" mixes all five fault kinds.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "cli_flags.hpp"
#include "debug/determinism.hpp"
#include "debug/invariants.hpp"
#include "debug/watchdog.hpp"
#include "lb_ext/policies.hpp"
#include "runtime/parallel_runner.hpp"
#include "telemetry/probes.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "chaos_audit: %s\n(see the header of tools/chaos_audit.cpp "
               "for flag documentation)\n",
               msg);
  std::exit(2);
}

// Audited by default: every registered policy but local-eq, which is left
// to an explicit --lb list; CI's chaos lane runs it.
constexpr const char* kDefaultPolicies[] = {
    "ecmp",    "conga", "conga-flow", "spray", "local",
    "letflow", "drill", "presto",     "hula"};

struct AuditConfig {
  /// Every cell's spec but its policy and fault seed.
  campaign::ExperimentSpec base;
  std::vector<std::string> policies{std::begin(kDefaultPolicies),
                                    std::end(kDefaultPolicies)};
  int campaigns = 3;
  int jobs = 1;
  std::string out = "chaos_survival.json";
};

struct CellResult {
  std::uint64_t fct_digest = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t flows = 0;          ///< measured flows completed
  std::uint64_t unfinished = 0;     ///< measured flows never finished
  std::uint64_t bytes_outstanding = 0;
  std::uint64_t stalls = 0;         ///< watchdog stall episodes
  std::uint64_t transitions = 0;    ///< fault transitions applied
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_admin = 0;
  std::uint64_t drops_gray = 0;
  std::uint64_t drops_corrupt = 0;
  std::uint64_t drops_no_route = 0;  ///< switch had no live port toward dst
  bool drained = false;
  bool conservation_ok = true;
  bool survived = false;  ///< drained with a balanced packet ledger
};

CellResult run_cell(const workload::ExperimentConfig& cell) {
  debug::RunTap tap;
  workload::ExperimentConfig cfg = cell;
  cfg.fabric_hook = tap.wrap(cell.fabric_hook);
  workload::Experiment exp(cfg);

  debug::WatchdogConfig wd_cfg;
  wd_cfg.horizon = sim::milliseconds(20);
  wd_cfg.poll_interval = sim::milliseconds(2);
  debug::LivenessWatchdog watchdog(exp.scheduler(), wd_cfg);
  watchdog.attach_telemetry(&tap.sink);
  exp.generator().set_monitor(&watchdog);
  const workload::ExperimentResult res = exp.run();

  CellResult r;
  r.drained = res.drained;
  r.fct_digest = res.fct_digest;
  r.trace_digest = tap.trace.value();
  r.flows = res.flows;
  r.unfinished = res.unfinished_flows;
  r.bytes_outstanding = res.bytes_outstanding;
  r.stalls = watchdog.stall_count();
  // The injector registers this counter when its plan is non-empty.
  const telemetry::ProbeRegistry& probes = tap.sink.probes();
  const int transitions = probes.find("fault/transitions");
  if (transitions >= 0) r.transitions = probes.probe(transitions).counter();

  net::Fabric& fabric = exp.fabric();
  auto check_link = [&r](const net::Link* link) {
    r.drops_queue += link->queue().stats().dropped_pkts;
    r.drops_admin += link->drop_stats().admin_down_pkts;
    r.drops_gray += link->drop_stats().gray_pkts;
    r.drops_corrupt += link->drop_stats().corrupt_pkts;
    if (!link->conserves_packets()) r.conservation_ok = false;
  };
  for (const net::Link* link : fabric.fabric_links()) check_link(link);
  for (net::HostId h = 0; h < fabric.num_hosts(); ++h) {
    check_link(fabric.host_to_leaf(h));
    check_link(fabric.leaf_to_host(h));
  }
  for (int l = 0; l < fabric.num_leaves(); ++l) {
    r.drops_no_route += fabric.leaf(l).dropped_no_route();
  }
  for (int s = 0; s < fabric.num_spines(); ++s) {
    r.drops_no_route += fabric.spine(s).dropped_no_route();
  }
  r.survived = r.drained && r.conservation_ok;
  return r;
}

void write_report(std::FILE* f, const AuditConfig& cfg,
                  const std::vector<CellResult>& cells) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", cfg.base.fabric_seed);
  std::fprintf(f, "  \"campaigns\": %d,\n", cfg.campaigns);
  std::fprintf(f, "  \"profile\": \"%s\",\n", cfg.base.fault.profile.c_str());
  std::fprintf(f, "  \"load\": %.3f,\n", cfg.base.load);
  std::fprintf(f, "  \"cells\": [\n");
  const std::size_t n_policies = cfg.policies.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    const int campaign = static_cast<int>(i / n_policies);
    const char* policy = cfg.policies[i % n_policies].c_str();
    std::fprintf(
        f,
        "    {\"campaign\": %d, \"policy\": \"%s\", \"survived\": %s, "
        "\"drained\": %s, \"conservation_ok\": %s, \"flows\": %" PRIu64
        ", \"unfinished\": %" PRIu64 ", \"bytes_outstanding\": %" PRIu64
        ", \"stalls\": %" PRIu64 ", \"fault_transitions\": %" PRIu64
        ", \"drops\": {\"queue\": %" PRIu64 ", \"admin_down\": %" PRIu64
        ", \"gray\": %" PRIu64 ", \"corrupt\": %" PRIu64
        ", \"no_route\": %" PRIu64
        "}, \"fct_digest\": \"%016" PRIx64 "\", \"trace_digest\": "
        "\"%016" PRIx64 "\"}%s\n",
        campaign, policy, r.survived ? "true" : "false",
        r.drained ? "true" : "false", r.conservation_ok ? "true" : "false",
        r.flows, r.unfinished, r.bytes_outstanding, r.stalls, r.transitions,
        r.drops_queue, r.drops_admin, r.drops_gray, r.drops_corrupt,
        r.drops_no_route, r.fct_digest, r.trace_digest,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"summary\": [\n");
  for (std::size_t p = 0; p < n_policies; ++p) {
    std::uint64_t survived = 0, flows = 0, unfinished = 0, stalls = 0;
    for (std::size_t i = p; i < cells.size(); i += n_policies) {
      survived += cells[i].survived ? 1 : 0;
      flows += cells[i].flows;
      unfinished += cells[i].unfinished;
      stalls += cells[i].stalls;
    }
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"cells\": %d, \"survived\": "
                 "%" PRIu64 ", \"flows_completed\": %" PRIu64
                 ", \"unfinished\": %" PRIu64 ", \"stalls\": %" PRIu64 "}%s\n",
                 cfg.policies[p].c_str(), cfg.campaigns, survived, flows,
                 unfinished, stalls, p + 1 < n_policies ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  bool ok = true;
  for (const CellResult& r : cells) ok = ok && r.conservation_ok;
  std::fprintf(f, "  \"invariant_violations\": %" PRIu64 ",\n",
               debug::violation_count());
  std::fprintf(f, "  \"conservation_ok\": %s\n", ok ? "true" : "false");
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  AuditConfig cfg;
  campaign::ExperimentSpec& base = cfg.base;
  base.topo = net::testbed_baseline();
  base.topo.hosts_per_leaf = 4;
  base.load = 0.5;
  base.warmup_ns = sim::milliseconds(1);
  base.measure_ns = sim::milliseconds(5);
  // Covers several backed-off RTOs of the default transport (min_rto 200 ms),
  // so "unfinished" means wedged, not merely waiting out a timer.
  base.max_drain_ns = sim::milliseconds(1000);
  base.fault.profile = "random";
  tools::set_seed(base, 1);

  tools::FlagReader args(argc, argv, usage);
  args.each([&](const std::string& flag) {
    if (tools::cell_flag(args, flag, base)) return true;
    if (flag == "--campaigns") {
      cfg.campaigns = args.number<int>(1);
    } else if (flag == "--jobs") {
      cfg.jobs = args.number<int>();
    } else if (flag == "--out") {
      cfg.out = args.text();
    } else if (flag == "--profile") {
      base.fault.profile = args.text();
    } else if (flag == "--drain-ms") {
      base.max_drain_ns = sim::milliseconds(args.number<int>());
    } else if (flag == "--lb") {
      cfg.policies.clear();
      for (const std::string& name : args.list()) {
        if (name.empty()) continue;
        if (lb_ext::find_policy(name) == nullptr) {
          usage(("unknown --lb policy: " + name +
                 " (registered: " + lb_ext::policy_names() + ")")
                    .c_str());
        }
        cfg.policies.push_back(name);
      }
      if (cfg.policies.empty()) usage("--lb needs at least one policy");
    } else if (flag == "--help" || flag == "-h") {
      usage("usage");
    } else {
      return false;
    }
    return true;
  });
  const std::string& profile = base.fault.profile;
  if (profile != "random" && profile != "gray") {
    usage(("unknown --profile: " + profile).c_str());
  }

  const std::size_t n_policies = cfg.policies.size();
  const std::size_t n_cells =
      static_cast<std::size_t>(cfg.campaigns) * n_policies;
  // Every cell resolves before any runs: a bad load, host count or window
  // exits 2 with the spec's message.
  std::vector<workload::ExperimentConfig> cell_cfgs;
  for (std::size_t i = 0; i < n_cells; ++i) {
    campaign::ExperimentSpec spec = base;
    spec.policy = cfg.policies[i % n_policies];
    // Campaign c's plan is drawn from seed + c, so every policy of a
    // campaign faces the same plan.
    spec.fault.seed = base.fabric_seed + i / n_policies;
    cell_cfgs.push_back(tools::resolve(spec, usage));
  }
  std::printf("chaos_audit: %d campaign(s) x %zu policies, profile=%s, "
              "seed=%" PRIu64 ", jobs=%d\n",
              cfg.campaigns, n_policies, profile.c_str(), base.fabric_seed,
              cfg.jobs);

  const std::vector<CellResult> cells =
      runtime::parallel_map<CellResult>(n_cells, cfg.jobs, [&](std::size_t i) {
        return run_cell(cell_cfgs[i]);
      });

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    std::printf("  campaign %zu %-10s %s flows=%" PRIu64 " unfinished=%" PRIu64
                " stalls=%" PRIu64 " transitions=%" PRIu64
                " drops(q/adm/gray/corr)=%" PRIu64 "/%" PRIu64 "/%" PRIu64
                "/%" PRIu64 "\n",
                i / n_policies, cfg.policies[i % n_policies].c_str(),
                r.survived ? "SURVIVED" : (r.conservation_ok ? "unfinished "
                                                             : "LEAK      "),
                r.flows, r.unfinished, r.stalls, r.transitions, r.drops_queue,
                r.drops_admin, r.drops_gray, r.drops_corrupt);
  }

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos_audit: cannot write %s\n", cfg.out.c_str());
    return 2;
  }
  write_report(f, cfg, cells);
  std::fclose(f);
  std::printf("survival report: %s\n", cfg.out.c_str());

  bool ok = debug::violation_count() == 0;
  for (const CellResult& r : cells) ok = ok && r.conservation_ok;
  std::printf("%s\n", ok ? "CHAOS AUDIT PASSED: packet ledgers balanced, no "
                           "invariant violations"
                         : "CHAOS AUDIT FAILED: conservation or invariant "
                           "breach");
  return ok ? 0 : 1;
}
