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
//   --topology baseline|failure      preset testbed topologies (Fig 7)
//   --leaves N --spines N --hosts N --parallel N   custom Leaf-Spine
//   --fail L:S:P[:factor]            fail (or degrade) a leaf-spine link
//   --lb NAME                        any registered policy (ecmp, conga,
//                                    conga-flow, spray, local, local-eq,
//                                    letflow, drill, presto, hula)
//   --workload enterprise|data-mining|web-search|fixed:BYTES
//   --transport tcp|mptcp|dctcp      (dctcp implies --ecn-kb 100 default)
//   --load F --duration-ms N --warmup-ms N --seed N --min-rto-ms N
//   --subflows N (mptcp) --ecn-kb N --shared-buffer-mb N
//
// The flags build a campaign::ExperimentSpec (fabric seed --seed, traffic
// seed --seed*31+7) and the tool runs that spec, so a bad load,
// distribution, policy, window or topology exits 2 with the same message a
// campaign cell would fail with.
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

struct Options {
  std::string topology = "baseline";
  int leaves = -1, spines = -1, hosts = -1, parallel = -1;
  std::vector<net::LinkOverride> fails;
  std::string lb = "conga";
  std::string workload = "enterprise";
  std::string transport = "tcp";
  double load = 0.6;
  int duration_ms = 100;
  int warmup_ms = 10;
  int min_rto_ms = 10;
  int subflows = 8;
  int ecn_kb = 0;
  int shared_buffer_mb = 0;
  std::uint64_t seed = 1;
};

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("flag needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--topology") {
      o.topology = need(i);
    } else if (a == "--leaves") {
      tools::number_flag(argc, argv, i, o.leaves, usage);
    } else if (a == "--spines") {
      tools::number_flag(argc, argv, i, o.spines, usage);
    } else if (a == "--hosts") {
      tools::number_flag(argc, argv, i, o.hosts, usage);
    } else if (a == "--parallel") {
      tools::number_flag(argc, argv, i, o.parallel, usage);
    } else if (a == "--fail") {
      net::LinkOverride ov;
      ov.rate_factor = 0.0;
      double factor = 0.0;
      const char* spec = need(i);
      const int n = std::sscanf(spec, "%d:%d:%d:%lf", &ov.leaf, &ov.spine,
                                &ov.parallel, &factor);
      if (n < 3) usage("--fail expects L:S:P[:factor]");
      if (n == 4) ov.rate_factor = factor;
      o.fails.push_back(ov);
    } else if (a == "--lb") {
      o.lb = need(i);
    } else if (a == "--workload") {
      o.workload = need(i);
    } else if (a == "--transport") {
      o.transport = need(i);
    } else if (a == "--load") {
      tools::number_flag(argc, argv, i, o.load, usage);
    } else if (a == "--duration-ms") {
      tools::number_flag(argc, argv, i, o.duration_ms, usage);
    } else if (a == "--warmup-ms") {
      tools::number_flag(argc, argv, i, o.warmup_ms, usage);
    } else if (a == "--min-rto-ms") {
      tools::number_flag(argc, argv, i, o.min_rto_ms, usage);
    } else if (a == "--subflows") {
      tools::number_flag(argc, argv, i, o.subflows, usage);
    } else if (a == "--ecn-kb") {
      tools::number_flag(argc, argv, i, o.ecn_kb, usage);
    } else if (a == "--shared-buffer-mb") {
      tools::number_flag(argc, argv, i, o.shared_buffer_mb, usage);
    } else if (a == "--seed") {
      tools::number_flag(argc, argv, i, o.seed, usage);
    } else if (a == "--help" || a == "-h") {
      usage("usage");
    } else {
      usage(("unknown flag: " + a).c_str());
    }
  }
  return o;
}

/// The --workload spelling as a spec distribution name.
std::string spec_dist(const std::string& workload) {
  if (workload == "data-mining") return "datamining";
  if (workload == "web-search") return "websearch";
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  net::TopologyConfig topo;
  if (o.topology == "baseline") {
    topo = net::testbed_baseline();
  } else if (o.topology == "failure") {
    topo = net::testbed_link_failure();
  } else if (o.topology == "custom") {
    // keep defaults; fields below override
  } else {
    usage(("unknown --topology: " + o.topology).c_str());
  }
  if (o.leaves > 0) topo.num_leaves = o.leaves;
  if (o.spines > 0) topo.num_spines = o.spines;
  if (o.hosts > 0) topo.hosts_per_leaf = o.hosts;
  if (o.parallel > 0) topo.links_per_spine = o.parallel;
  for (const auto& f : o.fails) topo.overrides.push_back(f);
  if (o.ecn_kb > 0) {
    topo.ecn_threshold_bytes = static_cast<std::uint64_t>(o.ecn_kb) * 1000;
  }
  if (o.shared_buffer_mb > 0) {
    topo.shared_buffer_bytes =
        static_cast<std::uint64_t>(o.shared_buffer_mb) * 1024 * 1024;
    topo.edge_queue_bytes = topo.shared_buffer_bytes;
    topo.fabric_queue_bytes = topo.shared_buffer_bytes;
  }

  if (o.transport == "dctcp") {
    if (topo.ecn_threshold_bytes == 0) topo.ecn_threshold_bytes = 100'000;
  } else if (o.transport == "mptcp") {
    if (o.subflows < 1) usage("--subflows must be >= 1");
  } else if (o.transport != "tcp") {
    usage(("unknown --transport: " + o.transport).c_str());
  }

  campaign::ExperimentSpec spec;
  spec.dist = spec_dist(o.workload);
  spec.policy = o.lb;
  spec.load = o.load;
  spec.topo = topo;
  spec.min_rto_ns = sim::milliseconds(o.min_rto_ms);
  spec.dctcp = o.transport == "dctcp";
  spec.mptcp_subflows = o.transport == "mptcp" ? o.subflows : 0;
  spec.warmup_ns = sim::milliseconds(o.warmup_ms);
  spec.measure_ns = sim::milliseconds(o.duration_ms);
  spec.max_drain_ns = sim::seconds(5.0);
  spec.fabric_seed = o.seed;
  spec.traffic_seed = o.seed * 31 + 7;
  workload::ExperimentConfig cfg;
  std::string err;
  if (!campaign::to_experiment_config(spec, cfg, err)) usage(err.c_str());

  // Keep the experiment around for the utilization report.
  workload::Experiment exp(cfg);
  const workload::ExperimentResult r = exp.run();
  net::Fabric& fabric = exp.fabric();

  std::printf("topology %s: %d leaves x %d spines x %d links, %d hosts/leaf",
              o.topology.c_str(), topo.num_leaves, topo.num_spines,
              topo.links_per_spine, topo.hosts_per_leaf);
  if (!topo.overrides.empty()) {
    std::printf(", %zu link overrides", topo.overrides.size());
  }
  std::printf("\nscheme %s, transport %s, workload %s @ %.0f%% load, "
              "%d ms window\n\n",
              o.lb.c_str(), o.transport.c_str(), o.workload.c_str(),
              o.load * 100, o.duration_ms);

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
