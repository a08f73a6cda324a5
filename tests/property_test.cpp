// Parameterized property sweeps: invariants that must hold across the
// parameter space (paper §3.6 robustness claims, DRE/flowlet/ECMP laws).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/conga_lb.hpp"
#include "core/dre.hpp"
#include "core/flowlet_table.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga {
namespace {

// --- DRE convergence across rates and time constants ---

class DreSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(DreSweep, SteadyStateTracksOfferedRate) {
  const double fraction = std::get<0>(GetParam());  // offered / capacity
  const int tau_us = std::get<1>(GetParam());
  core::DreConfig cfg;
  cfg.t_dre = sim::microseconds(tau_us) / 8;
  cfg.alpha = 0.125;
  const double cap = 10e9;
  core::Dre dre(cfg, cap);
  const std::uint32_t pkt = 1500;
  const auto gap =
      static_cast<sim::TimeNs>(pkt * 8.0 / (cap * fraction) * 1e9);
  sim::TimeNs t = 0;
  for (int i = 0; i < 4000; ++i) {
    dre.add(pkt, t);
    t += gap;
  }
  EXPECT_GT(dre.utilization(t), fraction * 0.8);
  EXPECT_LT(dre.utilization(t), fraction * 1.1);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndTaus, DreSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8, 1.0),
                       ::testing::Values(40, 160, 500)),
    [](const auto& info) {
      return "load" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_tau" + std::to_string(std::get<1>(info.param)) + "us";
    });

// --- quantization bits (paper: robust for Q = 3..6) ---

class QuantSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantSweep, QuantizedMetricIsScaleInvariant) {
  core::DreConfig cfg;
  cfg.q_bits = GetParam();
  core::Dre dre(cfg, 10e9);
  // Half utilization must quantize near mid-scale for every Q.
  const auto half = static_cast<std::uint32_t>(10e9 / 8 * 160e-6 / 2);
  dre.add(half, 0);
  const double rel =
      static_cast<double>(dre.quantized(0)) / dre.max_metric();
  EXPECT_NEAR(rel, 0.5, 0.5 / dre.max_metric() + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Q1to6, QuantSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

// --- flowlet gap sweep: expiry exactly at the configured gap ---

class GapSweep : public ::testing::TestWithParam<int> {};

TEST_P(GapSweep, TimestampExpiryRespectsGap) {
  const sim::TimeNs gap = sim::microseconds(GetParam());
  core::FlowletTableConfig cfg;
  cfg.gap = gap;
  net::FlowKey k;
  k.src_host = 1;
  k.dst_host = 2;
  k.src_port = 3;
  k.dst_port = 4;
  // Boundary hit (and note a hit refreshes liveness)...
  core::FlowletTable hit(cfg);
  hit.install(k, 7, 0);
  EXPECT_EQ(hit.lookup(k, gap), 7);
  EXPECT_EQ(hit.lookup(k, 2 * gap), 7) << "the hit at t=gap refreshed it";
  // ...and expiry strictly past the gap on an untouched entry.
  core::FlowletTable miss(cfg);
  miss.install(k, 7, 0);
  EXPECT_EQ(miss.lookup(k, gap + 1), -1);
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapSweep,
                         ::testing::Values(50, 100, 300, 500, 1000, 13000));

// --- ECMP uniformity across port counts ---

class EcmpSweep : public ::testing::TestWithParam<int> {};

TEST_P(EcmpSweep, HashUniformAcrossPorts) {
  const int spines = GetParam();
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = spines;
  cfg.hosts_per_leaf = 2;
  sim::Scheduler sched;
  net::Fabric fabric(sched, cfg, 7);
  fabric.install_lb(lb::ecmp());
  auto* balancer = fabric.leaf(0).load_balancer();
  std::vector<int> hist(static_cast<std::size_t>(spines), 0);
  const int n = 8000 * spines;
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.flow.src_host = 0;
    p.flow.dst_host = 2;
    p.flow.src_port = static_cast<std::uint16_t>(i);
    p.flow.dst_port = static_cast<std::uint16_t>(i >> 16);
    ++hist[static_cast<std::size_t>(balancer->select_uplink(p, 1, 0))];
  }
  for (int c : hist) EXPECT_NEAR(c, 8000, 800);
}

INSTANTIATE_TEST_SUITE_P(Ports, EcmpSweep, ::testing::Values(2, 3, 4, 8, 12));

// --- CONGA parameter robustness (paper §3.6): Tfl sweep ---

class TflSweep : public ::testing::TestWithParam<int> {};

TEST_P(TflSweep, AsymmetricThroughputStaysHigh) {
  // The Fig 2 scenario must stay near-optimal for Tfl in the paper's robust
  // range (300us..1ms) and degrade gracefully outside it.
  net::TopologyConfig topo;
  topo.num_leaves = 2;
  topo.num_spines = 2;
  topo.hosts_per_leaf = 4;
  topo.host_link_bps = 10e9;
  topo.fabric_link_bps = 40e9;
  topo.overrides.push_back({1, 1, 0, 0.5});

  core::CongaConfig conga_cfg;
  conga_cfg.flowlet.gap = sim::microseconds(GetParam());

  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 3);
  fabric.install_lb(core::conga(conga_cfg));
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = sim::milliseconds(5);
  for (int h = 0; h < 4; ++h) {
    net::FlowKey key;
    key.src_host = h;
    key.dst_host = 4 + h;
    key.src_port = static_cast<std::uint16_t>(5000 + 16 * h);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(h), fabric.host(4 + h), key, std::uint64_t{1} << 40,
        tcp_cfg, tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run_until(sim::milliseconds(60));
  std::uint64_t delivered = 0;
  for (int h = 4; h < 8; ++h) delivered += fabric.host(h).bytes_received();
  const double bps = delivered * 8.0 / 0.060;
  // 40G demand, 60G of paths: whole-range sanity is >= 60% of demand.
  EXPECT_GT(bps, 0.6 * 40e9) << "Tfl=" << GetParam() << "us";
}

INSTANTIATE_TEST_SUITE_P(TflRange, TflSweep,
                         ::testing::Values(100, 300, 500, 1000));

// --- TCP correctness across MTUs and flow sizes ---

class TcpSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(TcpSweep, DeliversExactlyOnce) {
  const auto [mtu, size] = GetParam();
  net::TopologyConfig topo;
  topo.num_leaves = 2;
  topo.num_spines = 2;
  topo.hosts_per_leaf = 2;
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 13);
  fabric.install_lb(core::conga());
  tcp::TcpConfig cfg;
  cfg.mtu = mtu;
  cfg.min_rto = sim::milliseconds(10);
  net::FlowKey key;
  key.src_host = 0;
  key.dst_host = 2;
  key.src_port = 600;
  key.dst_port = 700;
  tcp::TcpFlow flow(sched, fabric.host(0), fabric.host(2), key, size, cfg,
                    tcp::FlowCompleteFn{});
  flow.start();
  sched.run();
  ASSERT_TRUE(flow.complete());
  EXPECT_EQ(flow.sink().delivered(), size);
}

INSTANTIATE_TEST_SUITE_P(
    MtuAndSize, TcpSweep,
    ::testing::Combine(::testing::Values(1500u, 9000u),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{1460},
                                         std::uint64_t{1461},
                                         std::uint64_t{100'000},
                                         std::uint64_t{5'000'000})));

// --- pod fabric sweep: delivery correctness across shapes ---

class PodSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PodSweep, TcpDeliversAcrossEveryShape) {
  const auto [pods, leaves, spines, cores] = GetParam();
  net::TopologyConfig cfg;
  cfg.num_pods = pods;
  cfg.num_leaves = pods * leaves;
  cfg.num_spines = pods * spines;
  cfg.num_cores = cores;
  cfg.hosts_per_leaf = 2;
  sim::Scheduler sched;
  net::Fabric fabric(sched, cfg, 5);
  fabric.install_lb(core::conga());
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  // One intra-pod and one inter-pod (when pods > 1) flow.
  net::FlowKey intra;
  intra.src_host = 0;
  intra.dst_host = (leaves > 1) ? 2 : 1;  // another leaf in pod 0 if any
  intra.src_port = 100;
  intra.dst_port = 80;
  tcp::TcpFlow f1(sched, fabric.host(intra.src_host),
                  fabric.host(intra.dst_host), intra, 500'000, t,
                  tcp::FlowCompleteFn{});
  f1.start();
  std::unique_ptr<tcp::TcpFlow> f2;
  if (pods > 1) {
    net::FlowKey inter;
    inter.src_host = 1;
    inter.dst_host = fabric.num_hosts() - 1;  // last pod
    inter.src_port = 300;
    inter.dst_port = 80;
    f2 = std::make_unique<tcp::TcpFlow>(sched, fabric.host(inter.src_host),
                                        fabric.host(inter.dst_host), inter,
                                        500'000, t, tcp::FlowCompleteFn{});
    f2->start();
  }
  sched.run();
  EXPECT_TRUE(f1.complete());
  EXPECT_EQ(f1.sink().delivered(), 500'000u);
  if (f2) {
    EXPECT_TRUE(f2->complete());
    EXPECT_EQ(f2->sink().delivered(), 500'000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PodSweep,
    ::testing::Values(std::make_tuple(2, 2, 2, 2), std::make_tuple(3, 2, 2, 1),
                      std::make_tuple(2, 1, 2, 3), std::make_tuple(2, 2, 4, 2),
                      std::make_tuple(4, 2, 2, 4),
                      std::make_tuple(2, 3, 3, 2)),
    [](const auto& info) {
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += "l";
      name += std::to_string(std::get<1>(info.param));
      name += "s";
      name += std::to_string(std::get<2>(info.param));
      name += "c";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

// --- FlowKey hashing sanity ---

class KeyHashSweep : public ::testing::TestWithParam<int> {};

TEST_P(KeyHashSweep, NearbyKeysHashFarApart) {
  const int base = GetParam();
  net::FlowKey a, b;
  a.src_host = base;
  a.dst_host = base + 1;
  a.src_port = 10;
  a.dst_port = 20;
  b = a;
  b.src_port = 11;  // minimal change
  // At least ~20 of 64 bits should differ (avalanche property).
  const auto x = a.hash() ^ b.hash();
  EXPECT_GE(__builtin_popcountll(x), 20);
}

INSTANTIATE_TEST_SUITE_P(Bases, KeyHashSweep,
                         ::testing::Values(0, 1, 17, 255, 4095, 100000));

}  // namespace
}  // namespace conga
