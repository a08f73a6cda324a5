// Figure 13: Incast — effective client throughput vs fan-in for CONGA+TCP
// and MPTCP, with minRTO in {200ms, 1ms} and MTU in {1500, 9000}.
//
// Paper shape: MPTCP collapses (below 30% at large fan-in with 1500B, ~5%
// with jumbo frames at 200ms minRTO); CONGA+TCP achieves 2-8x better
// throughput in the same settings.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/mptcp_connection.hpp"
#include "workload/incast_gen.hpp"

using namespace conga;

namespace {

double run_incast(int fanin, const tcp::FlowFactory& transport, bool full) {
  net::TopologyConfig topo = net::testbed_baseline();
  // The testbed's ToR uses dynamic shared buffering (~10 MB class ASIC): a
  // hot port absorbs plain TCP's synchronized burst, but MPTCP's 8-subflow
  // burst (8x the initial windows, 6x more again with jumbo frames)
  // overruns even that — precisely the paper's point. A static 512 KB port
  // would RTO-collapse every round for every transport.
  topo.shared_buffer_bytes = 10 * 1024 * 1024;
  topo.shared_buffer_alpha = 2.0;
  topo.edge_queue_bytes = 10 * 1024 * 1024;  // pool governs, not the cap
  // Client is host 0 (Leaf 0); servers fill the rest of both racks, as in
  // the testbed where the 63 other servers respond.
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 17);
  fabric.install_lb(core::conga());

  workload::IncastConfig inc;
  inc.client = 0;
  for (int s = 1; s <= fanin; ++s) inc.servers.push_back(s);
  inc.total_bytes = 10'000'000;
  inc.rounds = full ? 10 : 4;

  workload::IncastGenerator gen(fabric, transport, inc);
  gen.start();
  sched.run_until(sim::seconds(full ? 120.0 : 60.0));
  return gen.finished() ? gen.goodput_fraction() * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("Fig 13 — Incast throughput vs fan-in", full);

  const std::vector<int> fanins =
      full ? std::vector<int>{1, 4, 8, 16, 24, 32, 48, 63}
           : std::vector<int>{1, 8, 16, 32, 63};

  for (const std::uint32_t mtu : {1500u, 9000u}) {
    std::printf("\n===== MTU %u =====\n", mtu);
    std::printf("%-22s", "fan-in");
    for (int f : fanins) std::printf("%8d", f);
    std::printf("\n");
    for (const sim::TimeNs min_rto :
         {sim::milliseconds(200), sim::milliseconds(1)}) {
      tcp::TcpConfig t;
      t.mtu = mtu;
      t.min_rto = min_rto;
      tcp::MptcpConfig m;
      m.tcp = t;
      m.num_subflows = 8;

      char label[64];
      std::snprintf(label, sizeof(label), "CONGA+TCP (%lldms)",
                    static_cast<long long>(min_rto / sim::kNsPerMs));
      std::printf("%-22s", label);
      for (int f : fanins) {
        std::printf("%8.1f", run_incast(f, tcp::make_tcp_flow_factory(t), full));
      }
      std::printf("\n");

      std::snprintf(label, sizeof(label), "MPTCP (%lldms)",
                    static_cast<long long>(min_rto / sim::kNsPerMs));
      std::printf("%-22s", label);
      for (int f : fanins) {
        std::printf("%8.1f",
                    run_incast(f, tcp::make_mptcp_flow_factory(m), full));
      }
      std::printf("\n");
    }
  }
  std::printf("\n(values: %% of the client 10G access link; paper: CONGA+TCP "
              "2-8x MPTCP at high fan-in)\n");
  return 0;
}
