// Custom load balancer: the public API lets downstream users drop in their
// own strategy. This example implements "RoundRobinLb" — per-flowlet
// round-robin over the reachable uplinks — plugs it into a fabric, and races
// it against ECMP and CONGA on an asymmetric topology.
//
// The interface contract (lb/load_balancer.hpp):
//   * select_uplink() is called for every fabric-bound packet and must
//     return an uplink index for which leaf.uplink_reaches(i, dst) holds;
//   * annotate() may stamp overlay fields on the outgoing packet;
//   * on_fabric_receive() sees every packet arriving from the fabric.
// A flowlet-switched policy derives from lb::FlowletLb (lb/flowlet_lb.hpp)
// instead: it supplies only choose(), the uplink for a new flowlet, picked
// from leaf.viable_uplinks(dst); the base keeps each flowlet on its cached
// uplink while it stays alive and usable.
#include <cstdio>
#include <memory>

#include "lb/factories.hpp"
#include "lb/flowlet_lb.hpp"
#include "net/fabric.hpp"
#include "workload/traffic_gen.hpp"

using namespace conga;

namespace {

class RoundRobinLb final : public lb::FlowletLb {
 public:
  explicit RoundRobinLb(net::LeafSwitch& leaf)
      : FlowletLb(leaf, core::FlowletTableConfig{}) {}

  std::string name() const override { return "RoundRobin"; }

 private:
  // The next viable uplink in cyclic order from next_: the first one at or
  // after next_, else (wrapping around) the first one.
  int choose(const net::FlowKey& /*key*/, net::LeafId dst_leaf,
             sim::TimeNs /*now*/) override {
    int viable[16];
    const int n = leaf_.viable_uplinks(dst_leaf, viable);
    int pick = -1;
    for (int k = 0; k < n; ++k) {
      if (pick < 0 || (pick < next_ && viable[k] >= next_)) pick = viable[k];
    }
    next_ = (pick + 1) % static_cast<int>(leaf_.uplinks().size());
    return pick;
  }

  int next_ = 0;
};

net::Fabric::LbFactory round_robin() {
  return [](net::LeafSwitch& leaf, const net::TopologyConfig&,
            std::uint64_t) -> std::unique_ptr<lb::LoadBalancer> {
    return std::make_unique<RoundRobinLb>(leaf);
  };
}

double run(const char* name, const net::Fabric::LbFactory& lb) {
  net::TopologyConfig topo = net::testbed_link_failure();
  topo.hosts_per_leaf = 16;
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 31);
  fabric.install_lb(lb);
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  workload::TrafficGenConfig gc;
  gc.load = 0.6;
  gc.stop = sim::milliseconds(60);
  gc.measure_start = sim::milliseconds(10);
  gc.measure_stop = sim::milliseconds(50);
  workload::TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(t),
                                 workload::enterprise(), gc);
  gen.start();
  workload::run_with_drain(sched, gen, gc.stop, sim::seconds(2.0));
  const double fct = gen.collector().avg_normalized_fct();
  std::printf("%-12s avg FCT %6.2fx optimal over %zu flows\n", name, fct,
              gen.collector().count());
  return fct;
}

}  // namespace

int main() {
  std::printf("custom strategy vs built-ins on the link-failure topology "
              "@60%% load\n\n");
  run("RoundRobin", round_robin());
  run("ECMP", lb::ecmp());
  run("CONGA", core::conga());
  std::printf("\nRound-robin splits evenly like ECMP, so it inherits the "
              "same asymmetry\nblindness; congestion feedback is what "
              "closes the gap.\n");
  return 0;
}
