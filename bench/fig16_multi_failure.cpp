// Figure 16: multiple link failures in a larger fabric — 6 leaves, 4
// spines, 3 parallel links per leaf-spine pair, 9 randomly chosen failed
// links; web-search workload at 75% load (scaled runs need the extra pressure to expose the downlink hotspots the paper sees at 60%). The paper plots the average queue
// length at every fabric port for ECMP vs CONGA.
//
// Paper shape: CONGA balances dramatically better; the improvement is
// largest at the (remote) spine downlinks adjacent to failures, which ECMP
// overloads because it spreads leaf uplink load evenly regardless.
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "runtime/parallel_runner.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

net::TopologyConfig fig16_topo(bool full) {
  net::TopologyConfig topo;
  topo.num_leaves = 6;
  topo.num_spines = 4;
  topo.links_per_spine = 3;  // 12 uplinks per leaf, the LBTag maximum
  topo.hosts_per_leaf = full ? 48 : 12;
  // Preserve the paper's 1:1 subscription (48 x 10G vs 12 x 40G) at scale:
  // 12 x 10G hosts vs 12 x 10G fabric links.
  topo.host_link_bps = 10e9;
  topo.fabric_link_bps = full ? 40e9 : 10e9;

  // 9 random failed links (fixed seed so ECMP and CONGA see the same
  // asymmetry).
  sim::Rng rng(99);
  int failed = 0;
  while (failed < 9) {
    net::LinkOverride o;
    o.leaf = static_cast<int>(rng.index(6));
    o.spine = static_cast<int>(rng.index(4));
    o.parallel = static_cast<int>(rng.index(3));
    o.rate_factor = 0.0;
    bool dup = false;
    for (const auto& e : topo.overrides) {
      if (e.leaf == o.leaf && e.spine == o.spine && e.parallel == o.parallel) {
        dup = true;
      }
    }
    if (dup) continue;
    topo.overrides.push_back(o);
    ++failed;
  }
  return topo;
}

struct PortLoads {
  std::vector<double> uplink_q;    // avg queue bytes, leaf->spine
  std::vector<double> downlink_q;  // avg queue bytes, spine->leaf
  std::vector<std::string> up_names, down_names;
};

PortLoads run(const net::Fabric::LbFactory& lb, bool full) {
  workload::ExperimentConfig cfg;
  cfg.topo = fig16_topo(full);
  cfg.dist = workload::web_search();
  cfg.load = 0.75;
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  cfg.transport = tcp::make_tcp_flow_factory(t);
  cfg.lb = lb;
  cfg.measure =
      (full ? sim::milliseconds(200) : sim::milliseconds(60)) - cfg.warmup;
  cfg.max_drain = 0;
  cfg.fabric_seed = 5;
  workload::Experiment exp(cfg);
  exp.run();

  PortLoads out;
  const sim::TimeNs now = exp.scheduler().now();
  for (const net::Link* l : exp.fabric().fabric_links()) {
    const double avg = l->queue().time_avg_bytes(now);
    if (l->name().rfind("up:", 0) == 0) {
      out.uplink_q.push_back(avg);
      out.up_names.push_back(l->name());
    } else {
      out.downlink_q.push_back(avg);
      out.down_names.push_back(l->name());
    }
  }
  return out;
}

void summarize(const char* what, std::vector<double> ecmp,
               std::vector<double> conga) {
  auto stats = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const double max = v.back();
    const double p90 = v[static_cast<std::size_t>(0.9 * (v.size() - 1))];
    int hot = 0;
    for (double x : v) {
      if (x > 500e3) ++hot;  // > 500 KB standing queue = a hotspot
    }
    return std::tuple<double, double, int>(max, p90, hot);
  };
  const auto [e_max, e_p90, e_hot] = stats(ecmp);
  const auto [c_max, c_p90, c_hot] = stats(conga);
  std::printf("%-18s max: ECMP %7.0f KB vs CONGA %7.0f KB (%.1fx)   "
              "p90: %7.0f vs %7.0f KB   hot ports(>500KB): %d vs %d\n",
              what, e_max / 1e3, c_max / 1e3, (e_max + 1) / (c_max + 1),
              e_p90 / 1e3, c_p90 / 1e3, e_hot, c_hot);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_mode(argc, argv);
  const int jobs = bench::jobs_mode(argc, argv);
  bench::print_header(
      "Fig 16 — multi-failure fabric (6 leaves x 4 spines x 3 links, 9 down)",
      full, jobs);

  // The two schemes are independent whole-fabric simulations; run them
  // concurrently (results committed by index).
  const std::vector<PortLoads> runs = runtime::parallel_map<PortLoads>(
      2, jobs,
      [&](std::size_t i) { return run(i == 0 ? lb::ecmp() : core::conga(), full); });
  const PortLoads& ecmp = runs[0];
  const PortLoads& conga = runs[1];

  std::printf("\nper-port time-averaged queue (KB): leaf uplinks\n");
  std::printf("%-14s%12s%12s\n", "link", "ECMP", "CONGA");
  for (std::size_t i = 0; i < ecmp.uplink_q.size(); ++i) {
    std::printf("%-14s%12.1f%12.1f\n", ecmp.up_names[i].c_str(),
                ecmp.uplink_q[i] / 1e3, conga.uplink_q[i] / 1e3);
  }
  std::printf("\nper-port time-averaged queue (KB): spine downlinks\n");
  std::printf("%-14s%12s%12s\n", "link", "ECMP", "CONGA");
  for (std::size_t i = 0; i < ecmp.downlink_q.size(); ++i) {
    std::printf("%-14s%12.1f%12.1f\n", ecmp.down_names[i].c_str(),
                ecmp.downlink_q[i] / 1e3, conga.downlink_q[i] / 1e3);
  }

  std::printf("\nsummary\n");
  summarize("leaf uplinks", ecmp.uplink_q, conga.uplink_q);
  summarize("spine downlinks", ecmp.downlink_q, conga.downlink_q);
  std::printf("\npaper: queues near failed links ~10x larger under ECMP; the "
              "gap is biggest at spine downlinks.\n");
  return 0;
}
