// 3-tier pod fabric demo (§7 "Larger topologies").
//
// Builds 2 pods x (2 leaves x 2 spines) + 2 core switches, degrades one
// spine's core links, and shows CONGA steering inter-pod flowlets around the
// damage while intra-pod traffic is balanced as usual.
#include <cstdio>
#include <memory>
#include <vector>

#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"

using namespace conga;

int main() {
  sim::Scheduler sched;

  net::TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.num_leaves = 4;
  cfg.num_spines = 4;
  cfg.hosts_per_leaf = 4;
  cfg.num_cores = 2;
  // Pod 0's spine 1 reaches the core tier at a tenth of the rate.
  cfg.core_overrides.push_back({1, 0, 0.1});
  cfg.core_overrides.push_back({1, 1, 0.1});

  net::Fabric fabric(sched, cfg, 7);
  fabric.install_lb(core::conga());

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(5);
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  auto add = [&](net::HostId s, net::HostId d, std::uint16_t port) {
    net::FlowKey key;
    key.src_host = s;
    key.dst_host = d;
    key.src_port = port;
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(s), fabric.host(d), key, std::uint64_t{1} << 40, t,
        tcp::FlowCompleteFn{}));
    flows.back()->start();
  };
  // Two intra-pod flows (pod 0) and two inter-pod flows (pod 0 -> pod 1).
  add(0, 4, 1000);
  add(1, 5, 1016);
  add(2, 12, 1032);
  add(3, 13, 1048);

  sched.run_until(sim::milliseconds(50));

  std::printf("leaf 0 uplink split after 50 ms:\n");
  const auto& ups = fabric.leaf(0).uplinks();
  for (std::size_t u = 0; u < ups.size(); ++u) {
    std::printf("  uplink %zu (to spine %d): %6.2f Gbps\n", u,
                ups[u].spine,
                static_cast<double>(ups[u].link->bytes_sent()) * 8 / 0.05 /
                    1e9);
  }
  std::printf("\ncore links out of pod 0:\n");
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < 2; ++c) {
      const net::Link* l = fabric.spine_to_core(s, c);
      std::printf("  spine %d -> core %d (%4.0f Gbps cap): %6.2f Gbps\n", s,
                  c, l->rate_bps() / 1e9,
                  static_cast<double>(l->bytes_sent()) * 8 / 0.05 / 1e9);
    }
  }
  std::printf(
      "\nCONGA pushed the inter-pod flowlets toward spine 0 (healthy core\n"
      "path) because the CE field kept reporting congestion on the degraded\n"
      "one — only the first hop is CONGA-controlled, exactly as §7 argues.\n");
  return 0;
}
