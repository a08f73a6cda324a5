// conga_sim — command-line driver for the fabric simulator.
//
// Runs one experiment cell from flags and prints an FCT summary plus a
// per-uplink utilization table, e.g.:
//
//   conga_sim --topology failure --lb conga --workload enterprise
//             --load 0.6 --duration-ms 100
//   conga_sim --leaves 4 --spines 3 --hosts 16 --fail 1:2:0
//             --lb ecmp --workload fixed:500000 --load 0.5
//
// Flags:
//   --topology baseline|failure|custom   preset testbed topologies (Fig 7);
//                                    custom is a 2x2 fabric with 1 link
//                                    per spine pair
//   --leaves N --spines N --hosts N --parallel N   custom Leaf-Spine
//   --fail L:S:P[:factor]            fail (or degrade) a leaf-spine link
//   --lb NAME                        any registered policy (ecmp, conga,
//                                    conga-flow, spray, local, local-eq,
//                                    letflow, drill, presto, hula)
//   --workload enterprise|data-mining|web-search|fixed:BYTES
//                                    (or the spec names datamining,
//                                    websearch, as determinism_audit takes)
//   --transport tcp|mptcp|dctcp      (dctcp implies --ecn-kb 100 default)
//   --load F --duration-ms N --warmup-ms N --seed N --min-rto-ms N
//   --subflows N (mptcp) --ecn-kb N --shared-buffer-mb N (0 = off)
//
// The flags write a campaign::ExperimentSpec (fabric seed --seed, traffic
// seed --seed*31+7) on top of the --topology preset, wherever that flag
// appears, and the tool runs that spec, so a bad load, distribution,
// policy, window or topology size exits 2 with the same message a campaign
// cell would fail with.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "cli_flags.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "conga_sim: %s\n(see the header of tools/conga_sim.cpp "
               "for flag documentation)\n", msg);
  std::exit(2);
}

/// The last --topology value: the preset every other flag edits. It is
/// read ahead of the flag loop so that `--hosts 4 --topology failure`
/// builds the same spec as `--topology failure --hosts 4`.
std::string topology_flag(int argc, char** argv) {
  std::string name = "baseline";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--topology") == 0) name = argv[++i];
  }
  return name;
}

/// "L:S:P[:factor]" as a failed (factor 0) or degraded link; the topology
/// checks the indices.
net::LinkOverride parse_fail(const std::string& text) {
  constexpr int kAny = std::numeric_limits<int>::min();
  const std::vector<std::string> f = tools::split(text, ':');
  net::LinkOverride ov;
  if ((f.size() != 3 && f.size() != 4) ||
      !tools::parse_int_flag(f[0], kAny, ov.leaf) ||
      !tools::parse_int_flag(f[1], kAny, ov.spine) ||
      !tools::parse_int_flag(f[2], kAny, ov.parallel) ||
      (f.size() == 4 && !tools::parse_double_flag(f[3], ov.rate_factor))) {
    usage("--fail expects L:S:P[:factor]");
  }
  return ov;
}

/// The --workload spelling as a spec distribution name.
std::string spec_dist(const std::string& workload) {
  if (workload == "data-mining") return "datamining";
  if (workload == "web-search") return "websearch";
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  campaign::ExperimentSpec spec;
  net::TopologyConfig& topo = spec.topo;
  const std::string topology = topology_flag(argc, argv);
  if (topology == "baseline") {
    topo = net::testbed_baseline();
  } else if (topology == "failure") {
    topo = net::testbed_link_failure();
  } else if (topology != "custom") {
    usage(("unknown --topology: " + topology).c_str());
  }
  spec.min_rto_ns = sim::milliseconds(10);
  spec.measure_ns = sim::milliseconds(100);
  spec.max_drain_ns = sim::seconds(5.0);
  spec.mptcp_subflows = 8;  // --subflows; only --transport mptcp keeps it
  tools::set_seed(spec, 1);
  std::string workload = "enterprise";
  std::string transport = "tcp";

  tools::FlagReader args(argc, argv, usage);
  args.each([&](const std::string& flag) {
    if (tools::cell_flag(args, flag, spec)) return true;
    if (flag == "--topology") {
      args.text();  // already applied
    } else if (flag == "--leaves") {
      topo.num_leaves = args.number<int>();
    } else if (flag == "--spines") {
      topo.num_spines = args.number<int>();
    } else if (flag == "--parallel") {
      topo.links_per_spine = args.number<int>();
    } else if (flag == "--fail") {
      topo.overrides.push_back(parse_fail(args.text()));
    } else if (flag == "--lb") {
      spec.policy = args.text();
    } else if (flag == "--workload") {
      workload = args.text();
    } else if (flag == "--transport") {
      transport = args.text();
    } else if (flag == "--min-rto-ms") {
      spec.min_rto_ns = sim::milliseconds(args.number<int>());
    } else if (flag == "--subflows") {
      spec.mptcp_subflows = args.number<int>();
    } else if (flag == "--ecn-kb") {
      topo.ecn_threshold_bytes =
          static_cast<std::uint64_t>(args.number<int>(0)) * 1000;
    } else if (flag == "--shared-buffer-mb") {
      topo.shared_buffer_bytes =
          static_cast<std::uint64_t>(args.number<int>(0)) * 1024 * 1024;
    } else if (flag == "--help" || flag == "-h") {
      usage("usage");
    } else {
      return false;
    }
    return true;
  });

  spec.dist = spec_dist(workload);
  if (topo.shared_buffer_bytes > 0) {
    topo.edge_queue_bytes = topo.shared_buffer_bytes;
    topo.fabric_queue_bytes = topo.shared_buffer_bytes;
  }
  if (transport == "dctcp") {
    spec.dctcp = true;
    if (topo.ecn_threshold_bytes == 0) topo.ecn_threshold_bytes = 100'000;
  } else if (transport == "mptcp") {
    if (spec.mptcp_subflows < 1) usage("--subflows must be >= 1");
  } else if (transport != "tcp") {
    usage(("unknown --transport: " + transport).c_str());
  }
  if (transport != "mptcp") spec.mptcp_subflows = 0;

  // Keep the experiment around for the utilization report.
  workload::Experiment exp(tools::resolve(spec, usage));
  const workload::ExperimentResult r = exp.run();
  net::Fabric& fabric = exp.fabric();

  std::printf("topology %s: %d leaves x %d spines x %d links, %d hosts/leaf",
              topology.c_str(), topo.num_leaves, topo.num_spines,
              topo.links_per_spine, topo.hosts_per_leaf);
  if (!topo.overrides.empty()) {
    std::printf(", %zu link overrides", topo.overrides.size());
  }
  std::printf("\nscheme %s, transport %s, workload %s @ %.0f%% load, "
              "%lld ms window\n\n",
              spec.policy.c_str(), transport.c_str(), workload.c_str(),
              spec.load * 100,
              static_cast<long long>(spec.measure_ns / sim::kNsPerMs));

  std::printf("flows measured:        %zu (%s)\n", r.flows,
              r.drained ? "all completed"
                        : "NOT all completed before drain cap");
  std::printf("avg FCT / optimal:     %.2f\n", r.avg_norm_fct);
  std::printf("median FCT / optimal:  %.2f\n", r.median_norm_fct);
  std::printf("p99 FCT / optimal:     %.2f\n", r.p99_norm_fct);
  std::printf("avg FCT small flows:   %.1f us\n", r.avg_fct_small * 1e6);
  std::printf("avg FCT large flows:   %.1f ms\n", r.avg_fct_large * 1e3);

  std::printf("\nper-leaf uplink utilization (delivered bits / capacity, "
              "whole run):\n");
  const double secs = sim::to_seconds(exp.scheduler().now());
  for (int l = 0; l < fabric.num_leaves(); ++l) {
    std::printf("  leaf%-3d", l);
    for (const auto& up : fabric.leaf(l).uplinks()) {
      std::printf(" %5.2f",
                  static_cast<double>(up.link->bytes_sent()) * 8 / secs /
                      up.link->rate_bps());
    }
    std::printf("\n");
  }
  std::printf("\nfabric drops: ");
  std::uint64_t drops = 0;
  for (const net::Link* l : fabric.fabric_links()) {
    drops += l->queue().stats().dropped_pkts;
  }
  std::printf("%llu packets\n", static_cast<unsigned long long>(drops));
  return 0;
}
