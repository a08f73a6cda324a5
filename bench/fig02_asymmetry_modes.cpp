// Figure 2: congestion-aware load balancing needs non-local information
// under asymmetry.
//
// Paper scenario: L0 has 100 Gbps of TCP demand to L1 over two spine paths;
// the (S1, L1) link has half the capacity of the others (80G links, one
// 40G). Paper outcome: ECMP 90G, local congestion-aware 80G, CONGA 100G
// (66.6 / 33.3 split).
//
// We reproduce the exact ratios at a scaled size: demand == sum of path
// capacities, lower path at half rate. The bench prints delivered
// throughput, its fraction of the optimum, and the spine split for each
// scheme, averaged over several seeds.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "workload/traffic_gen.hpp"

using namespace conga;

namespace {

struct Outcome {
  double gbps = 0;
  double s0_share = 0;
};

// One run of the scenario. Traffic is either the paper's persistent flows
// (two per host pair) or, with `poisson`, a stream of 1 MB flows at ~97% of
// the path capacity: every flow makes a fresh decision, so the *continuous*
// rebalancing behaviour of each scheme shows (this is where the §2.4 local
// paradox bites: the under-delivering path keeps looking idle locally and
// keeps attracting traffic).
Outcome run_scheme(const net::Fabric::LbFactory& lb, std::uint64_t seed,
                   int hosts, sim::TimeNs measure, bool poisson) {
  net::TopologyConfig topo;
  topo.num_leaves = 2;
  topo.num_spines = 2;
  topo.hosts_per_leaf = hosts;
  topo.links_per_spine = 1;
  topo.host_link_bps = 10e9;
  topo.fabric_link_bps = 40e9;
  topo.overrides.push_back({1, 1, 0, 0.5});  // (S1, L1) at half capacity

  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, seed);
  fabric.install_lb(lb);

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(5);
  const sim::TimeNs warmup = sim::milliseconds(30);
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  std::optional<workload::TrafficGenerator> gen;
  if (poisson) {
    workload::TrafficGenConfig gc;
    // Offered 58G from L0 only, against 60G of (asymmetric) paths.
    gc.load = 58e9 / (topo.leaf_uplink_capacity_bps() * topo.num_leaves);
    gc.stop = warmup + measure;
    gc.seed = seed;
    gc.pair_picker = [hosts](sim::Rng& rng) {
      return std::pair<net::HostId, net::HostId>(
          static_cast<net::HostId>(rng.index(static_cast<std::size_t>(hosts))),
          static_cast<net::HostId>(hosts + rng.index(
              static_cast<std::size_t>(hosts))));
    };
    gen.emplace(fabric, tcp::make_tcp_flow_factory(tcp_cfg),
                workload::fixed_size(1'000'000), gc);
    gen->start();
  } else {
    int seq = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (int h = 0; h < hosts; ++h) {
        net::FlowKey key;
        key.src_host = h;
        key.dst_host = hosts + h;
        key.src_port = static_cast<std::uint16_t>(1000 + 16 * seq++);
        key.dst_port = 80;
        flows.push_back(std::make_unique<tcp::TcpFlow>(
            sched, fabric.host(h), fabric.host(hosts + h), key,
            std::uint64_t{1} << 42, tcp_cfg, tcp::FlowCompleteFn{}));
        flows.back()->start();
      }
    }
  }

  // Bytes delivered into Leaf 1, and Leaf 0's bytes sent toward S0 and S1.
  auto snapshot = [&] {
    std::array<std::uint64_t, 3> b{};
    for (int h = hosts; h < 2 * hosts; ++h) {
      b[0] += fabric.host(h).bytes_received();
    }
    for (const auto& up : fabric.leaf(0).uplinks()) {
      b[up.spine == 0 ? 1 : 2] += up.link->bytes_sent();
    }
    return b;
  };
  sched.run_until(warmup);
  const auto base = snapshot();
  sched.run_until(warmup + measure);
  const auto end = snapshot();

  Outcome o;
  o.gbps = static_cast<double>(end[0] - base[0]) * 8.0 /
           sim::to_seconds(measure) / 1e9;
  const double ds0 = static_cast<double>(end[1] - base[1]);
  const double ds1 = static_cast<double>(end[2] - base[2]);
  o.s0_share = ds0 / (ds0 + ds1);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_mode(argc, argv);
  bench::print_header(
      "Fig 2 — asymmetry: static (ECMP) vs local-aware vs global (CONGA)",
      full);

  const int hosts = 6;  // 60G demand vs 40G + 20G of downstream paths
  const sim::TimeNs measure =
      full ? sim::milliseconds(300) : sim::milliseconds(80);
  const int seeds = full ? 5 : 3;
  const double optimal_gbps = 60.0 * (1460.0 / 1500.0);  // goodput ceiling

  struct Scheme {
    const char* name;
    net::Fabric::LbFactory lb;
    double paper_fraction;  // of optimal, from Fig 2
  };
  const std::vector<Scheme> schemes = {
      {"ECMP", lb::ecmp(), 0.90},
      {"Local-DRE", lb::local_aware(), 0.80},
      {"Local-Equal", lb::local_equal(), 0.80},
      {"CONGA", core::conga(), 1.00},
      {"Weighted2:1", lb::weighted({2.0, 1.0}), 1.00},
  };

  for (const bool poisson : {false, true}) {
    std::printf(
        poisson
            ? "\n--- (ii) Poisson 1MB flows, offered 58G (continuous "
              "decisions) ---\n"
            : "--- (i) persistent flows, demand 60G (the paper's setup) ---\n");
    std::printf("%-14s%12s%12s%12s%14s\n", "scheme", "Gbps", "frac-opt",
                "S0-share", "paper-frac");
    for (const Scheme& s : schemes) {
      double gbps = 0, share = 0;
      for (int k = 0; k < seeds; ++k) {
        const Outcome o = run_scheme(
            s.lb, 11 + 13 * static_cast<unsigned>(k), hosts, measure, poisson);
        gbps += o.gbps;
        share += o.s0_share;
      }
      gbps /= seeds;
      share /= seeds;
      std::printf("%-14s%12.2f%12.3f%12.3f%14.2f\n", s.name, gbps,
                  gbps / optimal_gbps, share, s.paper_fraction);
    }
  }
  std::printf(
      "\npaper: ECMP 90G, local-aware 80G, CONGA 100G of a 100G demand;\n"
      "CONGA's optimal split here is 2/3 : 1/3 toward S0 "
      "(paper: 66.6/33.3).\n");
  return 0;
}
