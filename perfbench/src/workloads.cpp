#include "workloads.hpp"

#include <algorithm>
#include <thread>

#include "sim/hash.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace {

// How the workload seed enters each cell. The flow arrivals and sizes of
// the FCT workloads are a fixed draw: with the enterprise and data-mining
// CDFs a handful of 10 MB - 1 GB flows decide how much a cell simulates, and
// a fresh draw per seed moves host time by 20% (enterprise) to 30x
// (data-mining). The seed instead drives the fabric's RNG streams (LB
// tie-breaks, per-leaf randomness), Fig 16's failed links and the incast
// response jitter, which change behaviour but not the amount of work.
constexpr std::uint64_t kEnterpriseTraffic = 7;  // ExperimentSpec's default
// A data-mining draw whose measured window holds a few elephants (no
// 1 GB flow), so the cell takes seconds.
constexpr std::uint64_t kDataminingTraffic = 2;

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t stream) {
  return sim::mix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
}

campaign::ExperimentSpec enterprise_spec(std::uint64_t seed) {
  campaign::ExperimentSpec s;
  s.dist = "enterprise";
  s.policy = "conga";
  s.load = 0.6;
  s.topo = net::testbed_baseline();
  // The fig09 bench's scaled-run choice: 10 ms minRTO.
  s.min_rto_ns = sim::milliseconds(10);
  s.warmup_ns = sim::milliseconds(10);
  s.measure_ns = sim::milliseconds(20);
  s.fabric_seed = seed;
  s.traffic_seed = kEnterpriseTraffic;
  return s;
}

/// Fig 16's fabric: 6 leaves x 48 hosts, 4 spines x 3 parallel 40G links,
/// 9 of them failed. The fig16 bench draws the 9 the same way from a fixed
/// stream; here the seed picks them.
net::TopologyConfig fig16_topo(std::uint64_t seed) {
  net::TopologyConfig topo;
  topo.num_leaves = 6;
  topo.num_spines = 4;
  topo.links_per_spine = 3;
  topo.hosts_per_leaf = 48;
  topo.host_link_bps = 10e9;
  topo.fabric_link_bps = 40e9;
  sim::Rng rng(derived_seed(seed, 1));
  while (topo.overrides.size() < 9) {
    net::LinkOverride o;
    o.leaf = static_cast<int>(rng.index(6));
    o.spine = static_cast<int>(rng.index(4));
    o.parallel = static_cast<int>(rng.index(3));
    o.rate_factor = 0.0;
    const bool dup = std::any_of(
        topo.overrides.begin(), topo.overrides.end(),
        [&o](const net::LinkOverride& e) {
          return e.leaf == o.leaf && e.spine == o.spine &&
                 e.parallel == o.parallel;
        });
    if (!dup) topo.overrides.push_back(o);
  }
  return topo;
}

void enterprise_conga(std::uint64_t seed, Workload& w) {
  w.cells.push_back(CellSpec{"enterprise/conga/60", false,
                             enterprise_spec(seed), {}});
}

void fig16_datamining(std::uint64_t seed, Workload& w) {
  campaign::ExperimentSpec s;
  s.dist = "datamining";
  s.policy = "conga";
  s.load = 0.6;
  s.topo = fig16_topo(seed);
  s.min_rto_ns = sim::milliseconds(10);
  s.warmup_ns = sim::milliseconds(2);
  s.measure_ns = sim::milliseconds(4);
  s.max_drain_ns = sim::seconds(2.0);
  s.fabric_seed = seed;
  s.traffic_seed = kDataminingTraffic;
  w.cells.push_back(CellSpec{"fig16/datamining/conga/60", false, s, {}});
}

void incast_mptcp(std::uint64_t seed, Workload& w) {
  CellSpec c;
  c.name = "incast/mptcp8/fanin63";
  c.is_incast = true;
  IncastSpec& s = c.incast;
  s.topo = net::testbed_baseline();
  // Fig 13's testbed buffering: a 10 MB dynamic shared pool per switch
  // governs admission, not the per-port cap.
  s.topo.shared_buffer_bytes = 10 * 1024 * 1024;
  s.topo.shared_buffer_alpha = 2.0;
  s.topo.edge_queue_bytes = 10 * 1024 * 1024;
  s.fabric_seed = seed;
  s.incast.client = 0;
  for (net::HostId h = 1; h <= 63; ++h) s.incast.servers.push_back(h);
  s.incast.total_bytes = 10'000'000;
  s.incast.rounds = 40;
  s.incast.seed = derived_seed(seed, 2);
  s.mptcp.num_subflows = 8;
  s.mptcp.tcp.mtu = 1500;
  s.mptcp.tcp.min_rto = sim::milliseconds(1);
  w.cells.push_back(c);
}

void policy_grid(std::uint64_t seed, Workload& w) {
  for (const char* policy : {"ecmp", "conga", "letflow", "drill"}) {
    for (const int load : {30, 60, 90}) {
      campaign::ExperimentSpec s = enterprise_spec(seed);
      s.policy = policy;
      s.load = load / 100.0;
      s.topo.hosts_per_leaf = 16;
      s.warmup_ns = sim::milliseconds(1);
      s.measure_ns = sim::milliseconds(4);
      w.cells.push_back(CellSpec{
          std::string("grid/") + policy + "/" + std::to_string(load), false,
          s, {}});
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  w.jobs = static_cast<int>(std::clamp(hw, 1U, 4U));
}

}  // namespace

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& out) {
  Workload w;
  w.name = name;
  if (name == "enterprise_conga") {
    enterprise_conga(seed, w);
  } else if (name == "fig16_datamining") {
    fig16_datamining(seed, w);
  } else if (name == "incast_mptcp") {
    incast_mptcp(seed, w);
  } else if (name == "policy_grid") {
    policy_grid(seed, w);
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

}  // namespace perfbench
