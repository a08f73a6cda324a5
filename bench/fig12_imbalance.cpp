// Figure 12: extent of throughput imbalance across the 4 uplinks of Leaf 0
// on the baseline (symmetric) topology at 60% load — (MAX-MIN)/AVG over
// synchronous throughput samples.
//
// Paper shape: CONGA tightest (even better than MPTCP on enterprise),
// ECMP worst; CONGA-Flow between, better than MPTCP on enterprise but worse
// on data-mining.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "tcp/mptcp_connection.hpp"
#include "telemetry/probes.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

stats::Summary run_one(const net::Fabric::LbFactory& lb,
                       const tcp::FlowFactory& transport,
                       const workload::FlowSizeDist& dist, bool full) {
  workload::ExperimentConfig cfg;
  cfg.topo = net::testbed_baseline();
  if (!full) cfg.topo.hosts_per_leaf = 16;
  cfg.dist = dist;
  cfg.load = 0.6;
  cfg.transport = transport;
  cfg.lb = lb;
  const sim::TimeNs stop =
      full ? sim::milliseconds(500) : sim::milliseconds(100);
  cfg.measure = stop - cfg.warmup;
  cfg.max_drain = 0;
  cfg.fabric_seed = 43;
  telemetry::TraceSink sink(
      {.category_mask = telemetry::category_bit(telemetry::Category::kProbe)});
  workload::Experiment exp(cfg);
  exp.fabric().attach_telemetry(&sink);
  // Synchronous samples of Leaf 0's uplink tx_bytes probes. The paper
  // samples every 10 ms over minutes; scaled runs use 1 ms windows to get
  // enough samples in 100 ms.
  std::vector<int> uplinks;
  for (const auto& up : exp.fabric().leaf(0).uplinks()) {
    uplinks.push_back(sink.probes().find(up.link->name() + "/tx_bytes"));
  }
  telemetry::PeriodicSampler sampler(
      exp.scheduler(), sink,
      full ? sim::milliseconds(10) : sim::milliseconds(1),
      sim::milliseconds(10), stop, uplinks);
  exp.run();
  return sampler.spread_pct();
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_mode(argc, argv);
  bench::print_header(
      "Fig 12 — throughput imbalance across Leaf0 uplinks @60% load", full);

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  tcp::MptcpConfig m;
  m.tcp = t;

  struct Scheme {
    const char* name;
    net::Fabric::LbFactory lb;
    tcp::FlowFactory transport;
  };
  const Scheme schemes[] = {
      {"ECMP", lb::ecmp(), tcp::make_tcp_flow_factory(t)},
      {"CONGA-Flow", core::conga_flow(), tcp::make_tcp_flow_factory(t)},
      {"CONGA", core::conga(), tcp::make_tcp_flow_factory(t)},
      {"MPTCP", lb::ecmp(), tcp::make_mptcp_flow_factory(m)},
  };

  for (const bool mining : {false, true}) {
    std::printf("\n%s workload — imbalance (MAX-MIN)/AVG %%\n",
                mining ? "data-mining" : "enterprise");
    std::printf("%-12s%10s%10s%10s%10s%10s\n", "scheme", "p25", "p50", "p75",
                "p90", "mean");
    for (const Scheme& s : schemes) {
      const stats::Summary sum =
          run_one(s.lb, s.transport,
                  mining ? workload::data_mining() : workload::enterprise(),
                  full);
      std::printf("%-12s%10.1f%10.1f%10.1f%10.1f%10.1f\n", s.name,
                  sum.percentile(25), sum.percentile(50), sum.percentile(75),
                  sum.percentile(90), sum.mean());
    }
  }
  std::printf("\npaper: CONGA tightest, ECMP worst; CONGA-Flow and MPTCP "
              "between.\n");
  return 0;
}
