// Tests for the competitor load balancers (LetFlow, DRILL, Presto) and the
// policy registry. The HULA/probe-plane behaviour is covered by
// probe_plane_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "lb/factories.hpp"
#include "lb_ext/drill_lb.hpp"
#include "lb_ext/letflow_lb.hpp"
#include "lb_ext/policies.hpp"
#include "lb_ext/presto_lb.hpp"
#include "net/fabric.hpp"

namespace conga::lb_ext {
namespace {

net::TopologyConfig topo(int spines = 4) {
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = spines;
  cfg.hosts_per_leaf = 2;
  return cfg;
}

net::Packet packet_for_flow(int i, std::uint32_t size = 1500) {
  net::Packet p;
  p.flow.src_host = 0;
  p.flow.dst_host = 2;
  p.flow.src_port = static_cast<std::uint16_t>(i);
  p.flow.dst_port = static_cast<std::uint16_t>(i >> 16);
  p.size_bytes = size;
  return p;
}

// --- LetFlow ----------------------------------------------------------------

/// The flowlet gap of the balancer `policy` builds on leaf 0.
sim::TimeNs built_gap(const char* policy) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy(policy));
  auto* lb = dynamic_cast<lb::FlowletLb*>(fabric.leaf(0).load_balancer());
  return lb == nullptr ? -1 : lb->flowlets().config().gap;
}

TEST(LetFlowLb, OwnsIndependentDefaultGap) {
  // The 500us gap belongs to LetFlow itself, not to whatever
  // FlowletTableConfig's default happens to be for CONGA.
  EXPECT_EQ(built_gap("letflow"), sim::microseconds(500));
}

TEST(HulaLb, OwnsIndependentDefaultGap) {
  EXPECT_EQ(built_gap("hula"), sim::microseconds(100));
}

TEST(LetFlowLb, FlowletsStickWithinGap) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy("letflow"));
  auto* lb = fabric.leaf(0).load_balancer();
  net::Packet p = packet_for_flow(7);
  const int first = lb->select_uplink(p, 1, 0);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(lb->select_uplink(p, 1, sim::microseconds(100) * i), first);
  }
}

TEST(LetFlowLb, RerollsUniformlyOnExpiry) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy("letflow"));
  auto& leaf = fabric.leaf(0);
  // Bury one uplink in local congestion: LetFlow must keep picking it with
  // the same probability — the scheme is congestion-oblivious by definition.
  leaf.uplinks()[0].link->dre().add(1 << 22, 0);
  net::Packet p = packet_for_flow(8);
  std::set<int> used;
  for (int i = 0; i < 60; ++i) {
    // 1 ms steps, well past the 500 us gap: every call starts a flowlet.
    used.insert(
        leaf.load_balancer()->select_uplink(p, 1, sim::milliseconds(i)));
  }
  EXPECT_EQ(used.size(), 4u);  // all uplinks drawn, congested one included
}

// --- DRILL ------------------------------------------------------------------

TEST(DrillLb, MemoryWinsTiesSoEqualQueuesNeverMoveTheFlow) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy("drill"));
  auto* lb = dynamic_cast<DrillLb*>(fabric.leaf(0).load_balancer());
  ASSERT_NE(lb, nullptr);
  net::Packet p = packet_for_flow(9);
  const int first = lb->select_uplink(p, 1, 0);
  EXPECT_EQ(lb->remembered(1), first);
  // All queues are empty (all tie): the pinned tie-break says the
  // remembered port wins, so the decision must never move.
  for (int i = 1; i <= 50; ++i) {
    EXPECT_EQ(lb->select_uplink(p, 1, i), first);
  }
}

TEST(DrillLb, MovesToTheShorterQueueAndResticksThere) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(2), 5);
  fabric.install_lb(make_policy("drill"));
  auto& leaf = fabric.leaf(0);
  auto* lb = dynamic_cast<DrillLb*>(leaf.load_balancer());
  ASSERT_NE(lb, nullptr);
  net::Packet p = packet_for_flow(10);
  const int first = lb->select_uplink(p, 1, 0);
  const int other = 1 - first;
  // Pile real packets onto the remembered uplink's egress queue.
  for (int i = 0; i < 10; ++i) {
    net::PacketPtr filler = net::make_packet();
    filler->flow = packet_for_flow(1000 + i).flow;
    filler->size_bytes = 1500;
    leaf.uplinks()[static_cast<std::size_t>(first)].link->send(
        std::move(filler));
  }
  ASSERT_GT(leaf.uplinks()[static_cast<std::size_t>(first)].link->queue()
                .bytes(),
            0u);
  // Two-choices sampling finds the empty uplink within a few packets, and
  // once remembered it is strictly cheaper, so the decision stays put.
  int last = first;
  for (int i = 0; i < 20; ++i) last = lb->select_uplink(p, 1, i);
  EXPECT_EQ(last, other);
  EXPECT_EQ(lb->remembered(1), other);
}

// The spine half on a spine with 2 parallel downlinks to leaf 1.
struct DrillSpine {
  sim::Scheduler sched;
  net::Fabric fabric{sched, parallel_topo(), 5};
  DrillSpineLb* lb = nullptr;
  std::vector<net::Link*> links;

  static net::TopologyConfig parallel_topo() {
    net::TopologyConfig cfg = topo(2);
    cfg.links_per_spine = 2;
    return cfg;
  }
  DrillSpine() {
    install_policy(fabric, "drill");
    lb = dynamic_cast<DrillSpineLb*>(fabric.spine(0).balancer());
    links = {fabric.down_link(0, 1, 0), fabric.down_link(0, 1, 1)};
  }
};

TEST(DrillSpineLb, MemoryWinsTiesSoEqualQueuesNeverMoveTheFlow) {
  DrillSpine s;
  ASSERT_NE(s.lb, nullptr);
  const std::size_t first = s.lb->select_downlink(1, s.links);
  EXPECT_EQ(s.lb->remembered(1), static_cast<int>(first));
  for (int i = 1; i <= 50; ++i) {
    EXPECT_EQ(s.lb->select_downlink(1, s.links), first);
  }
}

TEST(DrillSpineLb, MovesToTheShorterQueueAndResticksThere) {
  DrillSpine s;
  ASSERT_NE(s.lb, nullptr);
  const std::size_t first = s.lb->select_downlink(1, s.links);
  const std::size_t other = 1 - first;
  for (int i = 0; i < 10; ++i) {
    net::PacketPtr filler = net::make_packet();
    filler->flow = packet_for_flow(1000 + i).flow;
    filler->size_bytes = 1500;
    s.links[first]->send(std::move(filler));
  }
  ASSERT_GT(s.links[first]->queue().bytes(), 0u);
  std::size_t last = first;
  for (int i = 0; i < 20; ++i) last = s.lb->select_downlink(1, s.links);
  EXPECT_EQ(last, other);
  EXPECT_EQ(s.lb->remembered(1), static_cast<int>(other));
}

TEST(DrillPolicy, InstallsAndRemovesSpineMode) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(2), 5);
  ASSERT_TRUE(install_policy(fabric, "drill"));
  EXPECT_NE(dynamic_cast<DrillSpineLb*>(fabric.spine(0).balancer()), nullptr);
  EXPECT_NE(dynamic_cast<DrillSpineLb*>(fabric.spine(1).balancer()), nullptr);
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "DRILL");
  // Switching policy must put the spines back on ECMP hashing.
  ASSERT_TRUE(install_policy(fabric, "conga"));
  EXPECT_EQ(fabric.spine(0).balancer(), nullptr);
  EXPECT_EQ(fabric.spine(1).balancer(), nullptr);
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "CONGA");
}

// --- Presto -----------------------------------------------------------------

TEST(PrestoLb, RotatesEvery64KBAndCyclesPorts) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy("presto"));
  auto* lb = dynamic_cast<PrestoLb*>(fabric.leaf(0).load_balancer());
  ASSERT_NE(lb, nullptr);
  net::Packet p = packet_for_flow(11, 1500);
  // 44 * 1500 = 66000 >= 64 KB: packets 1..44 ride the first cell (the
  // rotation happens *after* the cell fills), packet 45 starts the next.
  const int first = lb->select_uplink(p, 1, 0);
  for (int i = 2; i <= 44; ++i) {
    EXPECT_EQ(lb->select_uplink(p, 1, i), first) << "packet " << i;
  }
  EXPECT_EQ(lb->rotations(), 1u);
  // Drive three more full cells: every run is exactly 44 packets on one
  // port, and consecutive runs step cyclically through the viable uplinks.
  for (int cell = 1; cell <= 3; ++cell) {
    const int expect_port = (first + cell) % 4;
    for (int i = 0; i < 44; ++i) {
      EXPECT_EQ(lb->select_uplink(p, 1, 100 + i), expect_port)
          << "cell " << cell << " packet " << i;
    }
    EXPECT_EQ(lb->rotations(), static_cast<std::uint64_t>(cell) + 1);
  }
}

TEST(PrestoLb, DistinctFlowsStartOnSpreadPorts) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(4), 5);
  fabric.install_lb(make_policy("presto"));
  auto* lb = fabric.leaf(0).load_balancer();
  std::set<int> used;
  for (int i = 0; i < 64; ++i) {
    net::Packet p = packet_for_flow(i);
    used.insert(lb->select_uplink(p, 1, 0));
  }
  EXPECT_EQ(used.size(), 4u);  // hash-offset starts cover every uplink
}

// --- registry ---------------------------------------------------------------

TEST(PolicyRegistry, KnowsEveryPolicyAndRejectsUnknown) {
  EXPECT_NE(find_policy("letflow"), nullptr);
  EXPECT_NE(find_policy("drill"), nullptr);
  EXPECT_NE(find_policy("presto"), nullptr);
  EXPECT_NE(find_policy("hula"), nullptr);
  EXPECT_NE(find_policy("conga"), nullptr);
  EXPECT_EQ(find_policy("bogus"), nullptr);
  EXPECT_FALSE(static_cast<bool>(make_policy("bogus")));
  // The error-message name list carries every registered policy.
  const std::string names = policy_names();
  for (const PolicyInfo& p : policy_catalog()) {
    EXPECT_NE(names.find(p.name), std::string::npos) << p.name;
  }
}

TEST(PolicyRegistry, UnknownNameLeavesFabricUntouched) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(2), 5);
  ASSERT_TRUE(install_policy(fabric, "ecmp"));
  EXPECT_FALSE(install_policy(fabric, "bogus"));
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "ECMP");
  EXPECT_EQ(fabric.spine(0).balancer(), nullptr);
}

TEST(PolicyRegistry, NamesAreStable) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo(2), 5);
  ASSERT_TRUE(install_policy(fabric, "letflow"));
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "LetFlow");
  ASSERT_TRUE(install_policy(fabric, "drill"));
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "DRILL");
  ASSERT_TRUE(install_policy(fabric, "presto"));
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "Presto");
  ASSERT_TRUE(install_policy(fabric, "hula"));
  EXPECT_EQ(fabric.leaf(0).load_balancer()->name(), "HULA");
}

TEST(PolicyRegistry, ReachabilityRespectedByNewPolicies) {
  // Same scenario as lb_test's AllBalancersAvoidDeadSpines, for the
  // competitor suite: spine 1 loses its downlink to leaf 0, so leaf 1 must
  // never send leaf-0 traffic up to spine 1.
  net::TopologyConfig cfg = topo(2);
  cfg.overrides.push_back({0, 1, 0, 0.0});
  for (const char* policy : {"letflow", "drill", "presto", "hula"}) {
    sim::Scheduler sched;
    net::Fabric fabric(sched, cfg, 5);
    ASSERT_TRUE(install_policy(fabric, policy));
    auto& leaf1 = fabric.leaf(1);
    ASSERT_EQ(leaf1.uplinks().size(), 2u);
    int spine1_uplink = -1;
    for (int i = 0; i < 2; ++i) {
      if (leaf1.uplinks()[static_cast<std::size_t>(i)].spine == 1) {
        spine1_uplink = i;
      }
    }
    ASSERT_GE(spine1_uplink, 0);
    for (int i = 0; i < 64; ++i) {
      net::Packet p;
      p.flow.src_host = 2;
      p.flow.dst_host = 0;
      p.flow.src_port = static_cast<std::uint16_t>(i);
      p.flow.dst_port = 9;
      p.size_bytes = 1500;
      EXPECT_NE(leaf1.load_balancer()->select_uplink(p, 0, i), spine1_uplink)
          << policy;
    }
  }
}

}  // namespace
}  // namespace conga::lb_ext
