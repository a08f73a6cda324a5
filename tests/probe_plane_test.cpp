// Probe-plane tests: PathTable aging, HULA's learned tables, probe bytes on
// the wire, strict pay-for-what-you-use, probe loss under gray failure, and
// determinism of probe-driven experiments (serial and parallel).
#include <gtest/gtest.h>

#include "lb/factories.hpp"
#include "lb_ext/hula_lb.hpp"
#include "lb_ext/policies.hpp"
#include "net/fabric.hpp"
#include "probe/probe_plane.hpp"
#include "runtime/parallel_runner.hpp"
#include "workload/experiment.hpp"

namespace conga::probe {
namespace {

net::TopologyConfig topo22() {
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  return cfg;
}

lb_ext::HulaLb* hula_at(net::Fabric& fabric, int leaf) {
  return dynamic_cast<lb_ext::HulaLb*>(fabric.leaf(leaf).load_balancer());
}

// --- PathTable --------------------------------------------------------------

TEST(PathTable, StartsUnknownThenAges) {
  PathTable table(2, 2);  // entries age out after kProbeAgeAfter (500 us)
  EXPECT_EQ(table.metric(1, 0, 0), PathTable::kUnknown);
  EXPECT_EQ(table.updated_at(1, 0), -1);

  table.update(1, 0, 42, sim::microseconds(100));
  EXPECT_EQ(table.metric(1, 0, sim::microseconds(100)), 42);
  EXPECT_EQ(table.metric(1, 0, sim::microseconds(400)), 42);  // still fresh
  EXPECT_EQ(table.updated_at(1, 0), sim::microseconds(100));
  EXPECT_EQ(table.updates(), 1u);
  // The sibling entry is untouched.
  EXPECT_EQ(table.metric(1, 1, sim::microseconds(100)), PathTable::kUnknown);
  // Past age_after with no refresh the entry reads as unknown again, and a
  // refresh revives it.
  EXPECT_EQ(table.metric(1, 0, sim::milliseconds(1)), PathTable::kUnknown);
  table.update(1, 0, 7, sim::milliseconds(1));
  EXPECT_EQ(table.metric(1, 0, sim::milliseconds(1)), 7);
}

// --- probe round trips ------------------------------------------------------

TEST(ProbePlane, HulaLearnsEveryPathWithinAFewRounds) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo22(), 1);
  ASSERT_TRUE(lb_ext::install_policy(fabric, "hula"));
  sched.run_until(sim::milliseconds(1));  // 20 rounds at the 50 us period

  for (int leaf = 0; leaf < 2; ++leaf) {
    auto* lb = hula_at(fabric, leaf);
    ASSERT_NE(lb, nullptr);
    const ProbeAgent& agent = lb->agent();
    EXPECT_GT(agent.requests_sent(), 0u);
    EXPECT_GT(agent.replies_sent(), 0u);
    EXPECT_GT(agent.replies_received(), 0u);
    const net::LeafId other = 1 - leaf;
    for (int up = 0; up < 2; ++up) {
      EXPECT_NE(agent.table().metric(other, up, sched.now()),
                PathTable::kUnknown)
          << "leaf " << leaf << " uplink " << up;
    }
    EXPECT_GT(fabric.leaf(leaf).probes_to_fabric(), 0u);
    EXPECT_GT(fabric.leaf(leaf).probes_from_fabric(), 0u);
  }
}

TEST(ProbePlane, ProbesAreRealEncapsulatedPackets) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo22(), 1);
  ASSERT_TRUE(lb_ext::install_policy(fabric, "hula"));
  sched.run_until(sim::milliseconds(1));
  // No data traffic is running, so everything on the uplinks is probe
  // packets: kProbeBytes (64) + kOverlayHeaderBytes (50) each.
  const std::uint32_t wire = kProbeBytes + net::kOverlayHeaderBytes;
  for (int leaf = 0; leaf < 2; ++leaf) {
    for (const auto& up : fabric.leaf(leaf).uplinks()) {
      EXPECT_GT(up.link->bytes_sent(), 0u);
      EXPECT_EQ(up.link->bytes_sent() % wire, 0u);
    }
  }
}

// --- pay for what you use ---------------------------------------------------

TEST(ProbePlane, NoProbeStateUnlessAProbePolicyIsInstalled) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo22(), 1);
  const std::size_t before = sched.pending();
  ASSERT_TRUE(lb_ext::install_policy(fabric, "ecmp"));
  // Installing a probe-free policy schedules nothing.
  EXPECT_EQ(sched.pending(), before);
  sched.run_until(sim::milliseconds(1));
  for (int leaf = 0; leaf < 2; ++leaf) {
    EXPECT_EQ(fabric.leaf(leaf).probes_to_fabric(), 0u);
    EXPECT_EQ(fabric.leaf(leaf).probes_from_fabric(), 0u);
    for (const auto& up : fabric.leaf(leaf).uplinks()) {
      EXPECT_EQ(up.link->bytes_sent(), 0u);
    }
  }
  // ...while installing HULA does (one tick per leaf agent).
  ASSERT_TRUE(lb_ext::install_policy(fabric, "hula"));
  EXPECT_GT(sched.pending(), before);
}

TEST(ProbePlane, ReplacingHulaCancelsItsPendingRounds) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo22(), 1);
  const std::size_t before = sched.pending();
  ASSERT_TRUE(lb_ext::install_policy(fabric, "hula"));
  ASSERT_GT(sched.pending(), before);
  // Tearing the policy back down must not leave orphaned probe ticks that
  // would fire into destroyed agents or extend Scheduler::run().
  ASSERT_TRUE(lb_ext::install_policy(fabric, "ecmp"));
  EXPECT_EQ(sched.pending(), before);
}

// --- probe loss -------------------------------------------------------------

TEST(ProbePlane, GrayFailedPathGoesStaleAndStaysStale) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo22(), 1);
  ASSERT_TRUE(lb_ext::install_policy(fabric, "hula"));
  sched.run_until(sim::milliseconds(1));
  auto* lb = hula_at(fabric, 0);
  ASSERT_NE(lb, nullptr);
  ASSERT_NE(lb->agent().table().metric(1, 0, sched.now()),
            PathTable::kUnknown);

  // Kill every packet on leaf 0's uplink 0: its requests die outbound, so
  // (dst 1, uplink 0) stops refreshing and ages out...
  fabric.leaf(0).uplinks()[0].link->set_gray_failure(1.0, 0.0, 99);
  sched.run_until(sim::milliseconds(3));
  EXPECT_EQ(lb->agent().table().metric(1, 0, sched.now()),
            PathTable::kUnknown);
  // ...while uplink 1 keeps answering and stays fresh.
  EXPECT_NE(lb->agent().table().metric(1, 1, sched.now()),
            PathTable::kUnknown);
}

// --- determinism ------------------------------------------------------------

workload::ExperimentConfig hula_cell(std::uint64_t traffic_seed) {
  workload::ExperimentConfig cfg;
  cfg.topo = topo22();
  cfg.topo.hosts_per_leaf = 4;
  cfg.load = 0.4;
  cfg.lb = lb_ext::make_policy("hula");
  cfg.warmup = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(5);
  cfg.max_drain = sim::seconds(1.0);
  cfg.traffic_seed = traffic_seed;
  return cfg;
}

TEST(ProbePlane, HulaExperimentIsDeterministic) {
  const auto a = workload::run_fct_experiment(hula_cell(7));
  const auto b = workload::run_fct_experiment(hula_cell(7));
  ASSERT_GT(a.flows, 0u);
  EXPECT_EQ(a.fct_digest, b.fct_digest);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.probes_received, b.probes_received);
  EXPECT_GT(a.probes_sent, 0u);
  EXPECT_GE(a.probes_sent, a.probes_received);
}

TEST(ProbePlane, HulaDigestsMatchAcrossJobCounts) {
  auto run = [](int jobs) {
    return runtime::parallel_map<std::uint64_t>(2, jobs, [](std::size_t i) {
      return workload::run_fct_experiment(hula_cell(7 + i)).fct_digest;
    });
  };
  const auto serial = run(1);
  const auto threaded = run(2);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial[0], serial[1]);  // different seeds: genuinely distinct
}

}  // namespace
}  // namespace conga::probe
