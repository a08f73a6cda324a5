// Extension: reconvergence after a runtime link failure.
//
// The paper's failure experiments (Figs 7b, 11, 14, 16) use statically
// failed links; its motivation (§1, Gill et al.) is that failures are
// frequent and *disruptive while they last*. This bench measures the
// disruption window: a 40G uplink dies mid-run with a routing-detection
// delay of 1 ms, and we plot delivered throughput into Leaf 1 in 2 ms
// buckets for ECMP vs CONGA.
//
// Expected shape: both schemes blackhole flows during the detection window;
// after withdrawal, CONGA's flowlets immediately re-spread to keep the
// offered load (its congestion tables already know the surviving paths),
// while ECMP's surviving-uplink hash rebalance is congestion-blind and
// settles lower when the remaining capacity is asymmetric.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "telemetry/probes.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

std::vector<double> run(const net::Fabric::LbFactory& lb, bool full) {
  workload::ExperimentConfig cfg;
  cfg.topo = net::testbed_baseline();
  cfg.topo.hosts_per_leaf = full ? 32 : 16;
  cfg.dist = workload::fixed_size(300'000);
  cfg.load = 0.65;
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(5);
  cfg.transport = tcp::make_tcp_flow_factory(t);
  cfg.lb = lb;
  cfg.warmup = 0;
  cfg.measure = sim::milliseconds(100);
  cfg.max_drain = 0;
  cfg.fabric_seed = 31;
  telemetry::TraceSink sink(
      {.category_mask = telemetry::category_bit(telemetry::Category::kProbe)});
  workload::Experiment exp(cfg);

  // One of Leaf1's uplinks to Spine1 dies at t=40ms; detected at 41ms.
  net::Fabric& fabric = exp.fabric();
  exp.scheduler().schedule_at(sim::milliseconds(40), [&fabric] {
    fabric.fail_fabric_link(1, 1, 0, sim::milliseconds(1));
  });

  // The fabric's leaf1/rx_host_bytes probe sums bytes_received() over
  // Leaf 1's hosts; its counter deltas at 2 ms intervals are the
  // throughput buckets.
  fabric.attach_telemetry(&sink);
  telemetry::PeriodicSampler rx(exp.scheduler(), sink, sim::milliseconds(2),
                                0, cfg.measure,
                                {sink.probes().find("leaf1/rx_host_bytes")});
  exp.run();

  std::vector<double> gbps;
  for (const double delta_bytes : rx.series(0)) {
    gbps.push_back(delta_bytes * 8.0 / 2e-3 / 1e9);
  }
  return gbps;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header(
      "Extension — throughput timeline across a runtime link failure", full);

  const auto ecmp = run(lb::ecmp(), full);
  const auto conga = run(core::conga(), full);

  std::printf("delivered Gbps into Leaf 1 (2 ms buckets; link dies at 40 ms, "
              "detected at 41 ms)\n");
  std::printf("%6s%10s%10s\n", "t(ms)", "ECMP", "CONGA");
  for (std::size_t i = 0; i < ecmp.size(); ++i) {
    std::printf("%6zu%10.1f%10.1f\n", 2 * (i + 1), ecmp[i], conga[i]);
  }

  auto avg = [](const std::vector<double>& v, std::size_t from,
                std::size_t to) {
    double s = 0;
    for (std::size_t i = from; i < to; ++i) s += v[i];
    return s / static_cast<double>(to - from);
  };
  // Buckets: 2ms each; pre-failure = 20..40ms (idx 9..19), post = 60..100ms.
  std::printf("\n%-8s pre-failure avg: %5.1f G   post-failure avg: %5.1f G\n",
              "ECMP", avg(ecmp, 9, 19), avg(ecmp, 29, 49));
  std::printf("%-8s pre-failure avg: %5.1f G   post-failure avg: %5.1f G\n",
              "CONGA", avg(conga, 9, 19), avg(conga, 29, 49));
  return 0;
}
