// Figure 3: the optimal traffic split in an asymmetric topology depends on
// the traffic matrix — so no static (oblivious) weighting can be right.
//
// Paper scenario: 3 leaves, 2 spines, all 40G links, L0 lacks the uplink to
// S1. (a) with no L0->L2 traffic, L1->L2 should split 40/40 across the
// spines; (b) with 40G of L0->L2 traffic (forced through S0), L1->L2 must
// shift toward S1.
//
// Two reproductions side by side:
//  1. the bottleneck-game LP (exact optimal splits), and
//  2. the packet simulator with CONGA vs ECMP vs static weights.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/bottleneck_game.hpp"
#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "workload/traffic_gen.hpp"

using namespace conga;

namespace {

void analytic_part() {
  std::printf("--- analytic (bottleneck-game LP, §6 machinery) ---\n");
  for (const bool with_l0 : {false, true}) {
    analysis::LeafSpineGame g = analysis::LeafSpineGame::uniform(3, 2, 40);
    g.up[0][1] = 0;  // L0 has no uplink to S1
    g.users.push_back({1, 2, 80});  // L1 -> L2, 80G
    if (with_l0) g.users.push_back({0, 2, 40});
    analysis::GameFlow opt;
    const double b = analysis::optimal_bottleneck(g, &opt);
    std::printf("L0->L2 = %3dG: optimal L1->L2 split S0/S1 = %5.1f / %5.1f"
                "   (bottleneck %.3f)\n",
                with_l0 ? 40 : 0, opt.x[0][0], opt.x[0][1], b);
  }
  std::printf("paper: (a) 40/40, (b) shifts to give L0's traffic room on S0\n\n");
}

double simulated_s1_share(bool with_l0, const net::Fabric::LbFactory& lb,
                          sim::TimeNs measure) {
  net::TopologyConfig cfg;
  cfg.num_leaves = 3;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 8;
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  cfg.overrides.push_back({0, 1, 0, 0.0});

  sim::Scheduler sched;
  net::Fabric fabric(sched, cfg, 21);
  fabric.install_lb(lb);

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(5);

  workload::TrafficGenConfig gen_cfg;
  gen_cfg.load = 24e9 / (cfg.leaf_uplink_capacity_bps() * cfg.num_leaves);
  gen_cfg.stop = sim::milliseconds(30) + measure;
  gen_cfg.pair_picker = [](sim::Rng& rng) {
    return std::pair<net::HostId, net::HostId>(
        static_cast<net::HostId>(8 + rng.index(8)),
        static_cast<net::HostId>(20 + rng.index(4)));
  };
  workload::TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(t),
                                 workload::fixed_size(500'000), gen_cfg);
  gen.start();

  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  if (with_l0) {
    for (int h = 0; h < 4; ++h) {
      net::FlowKey key;
      key.src_host = h;
      key.dst_host = 16 + h;
      key.src_port = static_cast<std::uint16_t>(2000 + 16 * h);
      key.dst_port = 80;
      flows.push_back(std::make_unique<tcp::TcpFlow>(
          sched, fabric.host(h), fabric.host(16 + h), key,
          std::uint64_t{1} << 42, t, tcp::FlowCompleteFn{}));
      flows.back()->start();
    }
  }

  sched.run_until(sim::milliseconds(30));
  std::uint64_t s0b = 0, s1b = 0;
  for (const auto& up : fabric.leaf(1).uplinks()) {
    (up.spine == 0 ? s0b : s1b) += up.link->bytes_sent();
  }
  sched.run_until(sim::milliseconds(30) + measure);
  std::uint64_t s0 = 0, s1 = 0;
  for (const auto& up : fabric.leaf(1).uplinks()) {
    (up.spine == 0 ? s0 : s1) += up.link->bytes_sent();
  }
  const double d0 = static_cast<double>(s0 - s0b);
  const double d1 = static_cast<double>(s1 - s1b);
  return d1 / (d0 + d1);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header(
      "Fig 3 — the right split depends on the traffic matrix", full);

  analytic_part();

  const sim::TimeNs measure =
      full ? sim::milliseconds(300) : sim::milliseconds(70);
  std::printf("--- simulated: S1 share of the L1->L2 traffic ---\n");
  std::printf("%-14s%16s%16s\n", "scheme", "no-L0-traffic", "L0->L2=40G");
  struct Scheme {
    const char* name;
    net::Fabric::LbFactory lb;
  };
  for (const Scheme& s :
       {Scheme{"ECMP", lb::ecmp()},
        Scheme{"Weighted1:1", lb::weighted({1.0, 1.0})},
        Scheme{"CONGA", core::conga()}}) {
    const double a = simulated_s1_share(false, s.lb, measure);
    const double b = simulated_s1_share(true, s.lb, measure);
    std::printf("%-14s%16.3f%16.3f\n", s.name, a, b);
  }
  std::printf(
      "\npaper: only congestion-aware feedback adapts the split (CONGA's S1\n"
      "share rises with cross traffic; static schemes stay ~0.5).\n");
  return 0;
}
