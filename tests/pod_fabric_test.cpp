// Tests for 3-tier pod fabrics (§7 "Larger topologies"): net::Fabric with
// num_pods > 1, its cores, and the subsystems that take a net::Fabric.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/experiment.hpp"

namespace conga::net {
namespace {

// 2 pods x (2 leaves x 2 spines) + 2 cores; 4 hosts per leaf.
TopologyConfig small_pods() {
  TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.num_leaves = 4;
  cfg.num_spines = 4;
  cfg.hosts_per_leaf = 4;
  cfg.num_cores = 2;
  return cfg;
}

tcp::TcpConfig dc_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  return t;
}

TEST(PodTopology, ValidatesConfig) {
  TopologyConfig cfg = small_pods();
  EXPECT_TRUE(cfg.validate().empty());
  cfg.num_cores = 0;
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.core_overrides.push_back({5, 0, 0.0});
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.num_spines = 3;  // pods must split the spines evenly
  EXPECT_FALSE(cfg.validate().empty());
  cfg = small_pods();
  cfg.overrides.push_back({0, 2, 0, 0.5});  // leaf 0 is in pod 0, spine 2 not
  EXPECT_FALSE(cfg.validate().empty());
  TopologyConfig flat;
  flat.num_cores = 1;  // cores need pods
  EXPECT_FALSE(flat.validate().empty());
}

TEST(PodFabric, WiresExpectedCounts) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  EXPECT_EQ(fabric.num_hosts(), 16);
  EXPECT_EQ(fabric.num_cores(), 2);
  EXPECT_EQ(fabric.leaf(0).uplinks().size(), 2u);  // one per pod spine
  EXPECT_EQ(fabric.config().uplinks_per_leaf(), 2);
  // Every spine has 2 core uplinks; every core has 2 links into each pod.
  EXPECT_NE(fabric.spine_to_core(0, 0), nullptr);
  EXPECT_NE(fabric.spine_to_core(3, 1), nullptr);
  EXPECT_NE(fabric.core_to_spine(0, 2), nullptr);
  // A leaf has no links to another pod's spines.
  EXPECT_EQ(fabric.up_link(0, 2, 0), nullptr);
  EXPECT_EQ(fabric.down_link(2, 0, 0), nullptr);
}

TEST(PodFabric, DirectoryAndPodMapping) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  const TopologyConfig& cfg = fabric.config();
  EXPECT_EQ(fabric.leaf_of(0), 0);
  EXPECT_EQ(fabric.leaf_of(5), 1);   // hosts 4..7 on leaf 1
  EXPECT_EQ(fabric.leaf_of(12), 3);  // hosts 12..15 on leaf 3
  EXPECT_EQ(cfg.pod_of_leaf(0), 0);
  EXPECT_EQ(cfg.pod_of_leaf(1), 0);
  EXPECT_EQ(cfg.pod_of_leaf(2), 1);
  EXPECT_EQ(cfg.pod_of_leaf(3), 1);
}

TEST(PodFabric, IntraPodTrafficStaysInPod) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  PacketPtr p = make_packet();
  p->flow.src_host = 0;  // leaf 0, pod 0
  p->flow.dst_host = 4;  // leaf 1, pod 0
  p->flow.src_port = 1;
  p->flow.dst_port = 2;
  p->size_bytes = 1000;
  bool got = false;
  fabric.host(4).set_default_handler([&](PacketPtr) { got = true; });
  fabric.host(0).send(std::move(p));
  sched.run();
  EXPECT_TRUE(got);
  // No core link carried anything.
  for (int s = 0; s < 4; ++s) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(fabric.spine_to_core(s, c)->packets_sent(), 0u);
    }
  }
}

TEST(PodFabric, InterPodTrafficTraversesCore) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  PacketPtr p = make_packet();
  p->flow.src_host = 0;   // pod 0
  p->flow.dst_host = 12;  // pod 1
  p->flow.src_port = 1;
  p->flow.dst_port = 2;
  p->size_bytes = 1000;
  bool got = false;
  fabric.host(12).set_default_handler([&](PacketPtr pkt) {
    got = true;
    EXPECT_FALSE(pkt->overlay.valid);
  });
  fabric.host(0).send(std::move(p));
  sched.run();
  EXPECT_TRUE(got);
  std::uint64_t core_pkts = 0;
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < 2; ++c) {
      core_pkts += fabric.spine_to_core(s, c)->packets_sent();
    }
  }
  EXPECT_EQ(core_pkts, 1u);
}

TEST(PodFabric, TcpWorksAcrossPods) {
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  net::FlowKey key;
  key.src_host = 0;
  key.dst_host = 12;
  key.src_port = 100;
  key.dst_port = 200;
  tcp::TcpFlow flow(sched, fabric.host(0), fabric.host(12), key, 5'000'000,
                    dc_tcp(), tcp::FlowCompleteFn{});
  flow.start();
  sched.run();
  ASSERT_TRUE(flow.complete());
  EXPECT_EQ(flow.sink().delivered(), 5'000'000u);
  const double gbps = 5'000'000 * 8.0 / sim::to_seconds(flow.fct()) / 1e9;
  EXPECT_GT(gbps, 8.0);
}

TEST(PodFabric, FailedCoreLinkRemovedAndRouted) {
  TopologyConfig cfg = small_pods();
  // Pod 0's spine 0 loses BOTH core uplinks: inter-pod traffic through that
  // spine is impossible, and the leaves must know.
  cfg.core_overrides.push_back({0, 0, 0.0});
  cfg.core_overrides.push_back({0, 1, 0.0});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(core::conga());
  EXPECT_EQ(fabric.spine_to_core(0, 0), nullptr);

  // Leaf 0's uplink 0 (spine 0) cannot reach remote leaves, but still
  // reaches the local pod.
  EXPECT_FALSE(fabric.leaf(0).uplink_reaches(0, 2));
  EXPECT_TRUE(fabric.leaf(0).uplink_reaches(0, 1));
  EXPECT_TRUE(fabric.leaf(0).uplink_reaches(1, 2));

  // End to end: inter-pod flows still complete via spine 1.
  net::FlowKey key;
  key.src_host = 0;
  key.dst_host = 12;
  key.src_port = 100;
  key.dst_port = 200;
  tcp::TcpFlow flow(sched, fabric.host(0), fabric.host(12), key, 1'000'000,
                    dc_tcp(), tcp::FlowCompleteFn{});
  flow.start();
  sched.run();
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(fabric.spine(0).dropped_no_route(), 0u);
}

TEST(PodFabric, CongaAvoidsCongestedCorePath) {
  // Degrade pod0-spine1's core links to 10%: CONGA at the source leaf sees
  // the CE marks from the slow core path and shifts inter-pod flowlets to
  // spine 0, even though only the first hop is CONGA-controlled.
  TopologyConfig cfg = small_pods();
  cfg.core_overrides.push_back({1, 0, 0.1});
  cfg.core_overrides.push_back({1, 1, 0.1});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(core::conga());

  tcp::TcpConfig t = dc_tcp();
  t.min_rto = sim::milliseconds(5);
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 4; ++i) {
    net::FlowKey key;
    key.src_host = i;        // leaf 0, pod 0
    key.dst_host = 12 + i;   // leaf 3, pod 1
    key.src_port = static_cast<std::uint16_t>(3000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(i), fabric.host(12 + i), key,
        std::uint64_t{1} << 40, t, tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run_until(sim::milliseconds(60));
  const auto& ups = fabric.leaf(0).uplinks();
  const double to_s0 = static_cast<double>(ups[0].link->bytes_sent());
  const double to_s1 = static_cast<double>(ups[1].link->bytes_sent());
  EXPECT_GT(to_s0 / (to_s0 + to_s1), 0.7)
      << "CONGA must route around the degraded core path";
}

TEST(PodFabric, EcmpSplitsBlindlyAcrossDegradedCore) {
  TopologyConfig cfg = small_pods();
  cfg.core_overrides.push_back({1, 0, 0.1});
  cfg.core_overrides.push_back({1, 1, 0.1});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(lb::ecmp());
  tcp::TcpConfig t = dc_tcp();
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 8; ++i) {
    net::FlowKey key;
    key.src_host = i % 4;
    key.dst_host = 12 + (i % 4);
    key.src_port = static_cast<std::uint16_t>(4000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(key.src_host), fabric.host(key.dst_host), key,
        std::uint64_t{1} << 40, t, tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  sched.run_until(sim::milliseconds(60));
  const auto& ups = fabric.leaf(0).uplinks();
  const double to_s0 = static_cast<double>(ups[0].link->bytes_sent());
  const double to_s1 = static_cast<double>(ups[1].link->bytes_sent());
  // ECMP's flow split ignores the degradation entirely (bytes through the
  // degraded spine are throttled by TCP, so byte share < 0.5 — but nothing
  // like CONGA's decisive shift; flows stay pinned).
  EXPECT_GT(to_s1, 0.0);
  EXPECT_LT(to_s0 / (to_s0 + to_s1), 0.95);
}

TEST(PodFabric, RemotePodLinkFailureWithdrawsCoreRoute) {
  // Leaf 3 (pod 1) loses its only link to spine 2 before traffic starts.
  // The cores must stop handing leaf 3's traffic to spine 2, which has no
  // way down any more: nothing is dropped for lack of a route.
  sim::Scheduler sched;
  Fabric fabric(sched, small_pods(), 3);
  fabric.install_lb(core::conga());
  fabric.fail_fabric_link(/*leaf=*/3, /*spine=*/2, /*parallel=*/0,
                          /*detection_delay=*/0);
  sched.run();
  for (int c = 0; c < fabric.num_cores(); ++c) {
    EXPECT_EQ(fabric.core(c).downlink_count(3), 1u) << "core " << c;
    EXPECT_EQ(fabric.core(c).downlink_count(2), 2u) << "core " << c;
  }

  // Several flows, so the cores' hashes would have sent some to spine 2.
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < 4; ++i) {
    net::FlowKey key;
    key.src_host = i;       // leaf 0, pod 0
    key.dst_host = 12 + i;  // leaf 3, pod 1
    key.src_port = static_cast<std::uint16_t>(100 + 16 * i);
    key.dst_port = 200;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(key.src_host), fabric.host(key.dst_host), key,
        1'000'000, dc_tcp(), tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  // Bounded: a blackholed flow retransmits forever.
  sched.run_until(sim::milliseconds(100));
  for (const auto& f : flows) {
    ASSERT_TRUE(f->complete());
    EXPECT_EQ(f->sink().delivered(), 1'000'000u);
  }
  for (int s = 0; s < fabric.num_spines(); ++s) {
    EXPECT_EQ(fabric.spine(s).dropped_no_route(), 0u) << "spine " << s;
  }
  for (int c = 0; c < fabric.num_cores(); ++c) {
    EXPECT_EQ(fabric.core(c).dropped_no_route(), 0u) << "core " << c;
  }
}

TEST(PodFabric, TelemetryCoversCoreLinks) {
  TopologyConfig cfg = small_pods();
  cfg.core_overrides.push_back({1, 0, 0.1});
  sim::Scheduler sched;
  Fabric fabric(sched, cfg, 3);
  fabric.install_lb(core::conga());
  telemetry::TraceSink sink;
  fabric.attach_telemetry(&sink);
  const telemetry::ProbeRegistry& reg = sink.probes();
  for (int s = 0; s < fabric.num_spines(); ++s) {
    for (int c = 0; c < fabric.num_cores(); ++c) {
      const std::string up = fabric.spine_to_core(s, c)->name();
      const std::string down = fabric.core_to_spine(c, s)->name();
      EXPECT_GE(reg.find(up + "/queue_bytes"), 0) << up;
      EXPECT_GE(reg.find(down + "/queue_bytes"), 0) << down;
    }
  }
  EXPECT_GE(reg.find("fabric/drops_no_route"), 0);
#ifdef CONGA_TELEMETRY
  // The build-time core degradation is on record from the start.
  const telemetry::ComponentId degraded =
      sink.find_component(fabric.spine_to_core(1, 0)->name());
  ASSERT_NE(degraded, telemetry::kInvalidComponent);
  ASSERT_EQ(sink.events(degraded).size(), 1u);
  EXPECT_EQ(sink.events(degraded)[0].type,
            telemetry::EventType::kLinkDegraded);
#endif
  fabric.attach_telemetry(nullptr);
}

TEST(PodFabric, GrayCampaignReproducesAndConserves) {
  // A 2-pod cell through the shared experiment harness with a seeded gray
  // plan: the same digest on two runs, and every link's packet ledger
  // balances at each check (offered = drops + queued + in flight +
  // delivered).
  struct Ledger {
    int checks = 0;
    int violations = 0;
    std::uint64_t gray_pkts = 0;
  };
  auto run = [](Ledger& ledger) {
    workload::ExperimentConfig cfg;
    cfg.topo = small_pods();
    cfg.lb = core::conga();
    cfg.dist = workload::fixed_size(100'000);
    cfg.load = 0.3;
    cfg.warmup = sim::milliseconds(1);
    cfg.measure = sim::milliseconds(5);
    const sim::TimeNs horizon = cfg.warmup + cfg.measure;
    auto arm = fault::arming_hook(
        fault::make_gray_plan(cfg.topo, /*seed=*/5, horizon), /*seed=*/11);
    cfg.fabric_hook = [arm, horizon, &ledger](Fabric& fabric) {
      arm(fabric);
      for (sim::TimeNs t = sim::milliseconds(1); t <= horizon;
           t += sim::milliseconds(1)) {
        fabric.scheduler().schedule_at(t, [&fabric, &ledger] {
          ++ledger.checks;
          std::uint64_t gray = 0;
          for (const Link* l : fabric.fabric_links()) {
            if (!l->conserves_packets()) ++ledger.violations;
            gray += l->drop_stats().gray_pkts;
          }
          for (int h = 0; h < fabric.num_hosts(); ++h) {
            if (!fabric.host_to_leaf(h)->conserves_packets() ||
                !fabric.leaf_to_host(h)->conserves_packets()) {
              ++ledger.violations;
            }
          }
          ledger.gray_pkts = gray;
        });
      }
    };
    return workload::run_fct_experiment(cfg);
  };
  Ledger la;
  Ledger lb;
  const workload::ExperimentResult a = run(la);
  const workload::ExperimentResult b = run(lb);
  ASSERT_GT(a.flows, 0u);
  EXPECT_EQ(a.fct_digest, b.fct_digest);
  EXPECT_EQ(la.checks, 6);
  EXPECT_EQ(la.violations, 0);
  EXPECT_EQ(lb.violations, 0);
  EXPECT_GT(la.gray_pkts, 0u) << "the gray plan must actually drop packets";
}

}  // namespace
}  // namespace conga::net
