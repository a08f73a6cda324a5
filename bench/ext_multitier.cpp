// §7 extension: CONGA in a 3-tier pod fabric.
//
// The paper: "CONGA is beneficial even in these cases since it balances the
// traffic within each pod optimally, which also reduces congestion for
// inter-pod traffic. Moreover, even for inter-pod traffic, CONGA makes
// better decisions than ECMP at the first hop."
//
// Scenario: 2 pods x (2 leaves x 2 spines), 2 cores; one pod-0 spine's core
// links degraded to 10%. Mixed intra-pod and inter-pod persistent traffic;
// the bench reports delivered throughput per traffic class for ECMP vs
// CONGA. In this scenario ECMP delivers more inter-pod throughput than
// CONGA, contrary to the quote above; the closing note says so.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"

using namespace conga;

namespace {

struct Result {
  double intra_gbps = 0;
  double inter_gbps = 0;
};

Result run(const net::Fabric::LbFactory& lb, bool full) {
  net::TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.num_leaves = 4;
  cfg.num_spines = 4;
  cfg.hosts_per_leaf = 6;
  cfg.num_cores = 2;
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  // Asymmetry: pod 0's spine 1 reaches the core at a tenth of the rate.
  cfg.core_overrides.push_back({1, 0, 0.1});
  cfg.core_overrides.push_back({1, 1, 0.1});

  sim::Scheduler sched;
  net::Fabric fabric(sched, cfg, 7);
  fabric.install_lb(lb);

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(5);
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  std::vector<net::HostId> intra_dsts, inter_dsts;
  int seq = 0;
  auto add = [&](net::HostId s, net::HostId d) {
    net::FlowKey key;
    key.src_host = s;
    key.dst_host = d;
    key.src_port = static_cast<std::uint16_t>(1000 + 16 * seq++);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(s), fabric.host(d), key, std::uint64_t{1} << 42, t,
        tcp::FlowCompleteFn{}));
    flows.back()->start();
  };
  // Intra-pod: pod-0 leaf0 hosts 0-2 -> pod-0 leaf1 hosts 6-8.
  for (int i = 0; i < 3; ++i) {
    add(i, 6 + i);
    intra_dsts.push_back(6 + i);
  }
  // Inter-pod: pod-0 leaf0 hosts 3-5 -> pod-1 leaf3 hosts 18-20.
  for (int i = 0; i < 3; ++i) {
    add(3 + i, 18 + i);
    inter_dsts.push_back(18 + i);
  }

  const sim::TimeNs warmup = sim::milliseconds(30);
  const sim::TimeNs measure =
      full ? sim::milliseconds(300) : sim::milliseconds(80);
  sched.run_until(warmup);
  auto sum_bytes = [&](const std::vector<net::HostId>& hosts) {
    std::uint64_t b = 0;
    for (net::HostId h : hosts) b += fabric.host(h).bytes_received();
    return b;
  };
  const std::uint64_t intra0 = sum_bytes(intra_dsts);
  const std::uint64_t inter0 = sum_bytes(inter_dsts);
  sched.run_until(warmup + measure);
  Result r;
  r.intra_gbps = static_cast<double>(sum_bytes(intra_dsts) - intra0) * 8.0 /
                 sim::to_seconds(measure) / 1e9;
  r.inter_gbps = static_cast<double>(sum_bytes(inter_dsts) - inter0) * 8.0 /
                 sim::to_seconds(measure) / 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_mode(argc, argv);
  bench::print_header(
      "§7 extension — 3-tier pod fabric with a degraded core path", full);

  std::printf("traffic: 30G intra-pod + 30G inter-pod from pod-0/leaf-0;\n"
              "pod-0 spine-1's core links run at 10%%.\n\n");
  std::printf("%-10s%16s%16s%14s\n", "scheme", "intra-pod Gbps",
              "inter-pod Gbps", "total Gbps");
  for (const auto& [name, lb] :
       {std::pair<const char*, net::Fabric::LbFactory>{"ECMP", lb::ecmp()},
        std::pair<const char*, net::Fabric::LbFactory>{"CONGA",
                                                       core::conga()}}) {
    const Result r = run(lb, full);
    std::printf("%-10s%16.2f%16.2f%14.2f\n", name, r.intra_gbps, r.inter_gbps,
                r.intra_gbps + r.inter_gbps);
  }
  std::printf("\nBoth schemes carry the ~30G intra-pod class. "
              "On the inter-pod\nclass ECMP delivers more than CONGA here: "
              "steering the first hop by the CE\nfield accumulated across 4 "
              "hops does not recover what the degraded core\npath costs "
              "(an open question, tracked in ROADMAP.md).\n");
  return 0;
}
