// Fault-injection engine: gray failures, capacity degradation, switch
// reboots, and stale-feedback injection — each fault hook applies and
// clears, every drop is accounted to a cause, and the per-link packet
// conservation identity holds after any campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "debug/determinism.hpp"
#include "fault/fault_injector.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "tcp/flow.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga {
namespace {

net::TopologyConfig topo2x2(int hosts = 8) {
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = hosts;
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  return cfg;
}

tcp::TcpConfig dc_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(5);
  return t;
}

std::vector<std::unique_ptr<tcp::TcpFlow>> start_cross_leaf_flows(
    sim::Scheduler& sched, net::Fabric& fabric, int count,
    std::uint64_t bytes) {
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (int i = 0; i < count; ++i) {
    net::FlowKey key;
    key.src_host = i;
    key.dst_host = fabric.config().hosts_per_leaf + i;
    key.src_port = static_cast<std::uint16_t>(1000 + 16 * i);
    key.dst_port = 80;
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sched, fabric.host(key.src_host), fabric.host(key.dst_host), key,
        bytes, dc_tcp(), tcp::FlowCompleteFn{}));
    flows.back()->start();
  }
  return flows;
}

void expect_all_links_conserve(net::Fabric& fabric) {
  for (net::Link* l : fabric.fabric_links()) {
    EXPECT_EQ(l->packets_in_flight(), 0u) << l->name();
    EXPECT_TRUE(l->conserves_packets()) << l->name();
  }
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    EXPECT_TRUE(fabric.host_to_leaf(h)->conserves_packets());
    EXPECT_TRUE(fabric.leaf_to_host(h)->conserves_packets());
  }
}

bool trace_has_event(const telemetry::TraceSink& sink,
                     telemetry::EventType type) {
  for (const telemetry::Event& e : sink.all_events()) {
    if (e.type == type) return true;
  }
  return false;
}

TEST(FaultLink, GrayFailureDropsCorruptsAndConserves) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());

  net::Link* gray = fabric.up_link(0, 0, 0);
  ASSERT_NE(gray, nullptr);
  gray->set_gray_failure(0.1, 0.05, 12345);
  EXPECT_TRUE(gray->gray_failure_active());

  auto flows = start_cross_leaf_flows(sched, fabric, 4, 1'000'000);
  sched.run();

  for (auto& f : flows) {
    ASSERT_TRUE(f->complete()) << "TCP must recover from gray loss";
    EXPECT_EQ(f->sink().delivered(), 1'000'000u);
  }
  // Enough packets crossed the lossy uplink for both fates to occur.
  EXPECT_GT(gray->drop_stats().gray_pkts, 0u);
  EXPECT_GT(gray->drop_stats().gray_bytes, 0u);
  EXPECT_GT(gray->drop_stats().corrupt_pkts, 0u);
  // Corrupted packets occupied the wire: they were transmitted (counted in
  // packets_sent) but never delivered.
  EXPECT_GT(gray->packets_sent(), gray->packets_delivered());
  expect_all_links_conserve(fabric);

  gray->clear_gray_failure();
  EXPECT_FALSE(gray->gray_failure_active());
}

TEST(FaultLink, GrayLossPatternIsAFunctionOfTheSeed) {
  // Two identically-seeded runs drop the same packets; a different gray seed
  // changes the pattern while traffic stays fixed.
  auto run = [](std::uint64_t gray_seed) {
    sim::Scheduler sched;
    net::Fabric fabric(sched, topo2x2(), 1);
    fabric.install_lb(core::conga());
    fabric.up_link(0, 0, 0)->set_gray_failure(0.05, 0.0, gray_seed);
    auto flows = start_cross_leaf_flows(sched, fabric, 2, 500'000);
    sched.run();
    return fabric.up_link(0, 0, 0)->drop_stats().gray_pkts;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(FaultLink, AdminDownDropsAreCountedDuringDetectionWindow) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());
  auto flows = start_cross_leaf_flows(sched, fabric, 4, 5'000'000);

  // Fail mid-transfer with a wide detection window: the dataplane blackholes
  // (counted as admin-down drops) until the routing layer withdraws the
  // link. The DRE of the dead link drains, so CONGA keeps preferring it —
  // guaranteeing traffic hits the blackhole.
  sched.schedule_at(sim::milliseconds(1), [&] {
    fabric.fail_fabric_link(0, 0, 0, sim::milliseconds(1));
  });
  sched.run();

  for (auto& f : flows) {
    ASSERT_TRUE(f->complete());
    EXPECT_EQ(f->sink().delivered(), 5'000'000u);
  }
  EXPECT_GT(fabric.up_link(0, 0, 0)->drop_stats().admin_down_pkts, 0u);
  EXPECT_GT(fabric.up_link(0, 0, 0)->drop_stats().admin_down_bytes, 0u);
  expect_all_links_conserve(fabric);
}

TEST(FaultLink, RateScaleSlowsSerializationAndRestores) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());
  telemetry::TraceSink sink;
  fabric.attach_telemetry(&sink);

  net::Link* link = fabric.up_link(0, 0, 0);
  const sim::TimeNs nominal = link->serialization_delay(1500);
  link->set_rate_scale(0.5);
  EXPECT_DOUBLE_EQ(link->rate_scale(), 0.5);
  EXPECT_DOUBLE_EQ(link->effective_rate_bps(), 0.5 * link->rate_bps());
  EXPECT_EQ(link->serialization_delay(1500), 2 * nominal);
  if (telemetry::compiled_in()) {
    EXPECT_TRUE(trace_has_event(sink, telemetry::EventType::kLinkDegraded));
  }

  link->set_rate_scale(1.0);
  EXPECT_EQ(link->serialization_delay(1500), nominal);
  EXPECT_DOUBLE_EQ(link->effective_rate_bps(), link->rate_bps());
}

TEST(FaultInjector, DegradeSpecAppliesBothDirectionsAndClears) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());

  fault::DegradeSpec d;
  d.leaf = 0;
  d.spine = 1;
  d.rate_scale = 0.25;
  d.start = sim::milliseconds(1);
  d.stop = sim::milliseconds(2);
  fault::FaultPlan plan;
  plan.add(d);

  fault::FaultInjector injector(fabric, 3);
  injector.arm(plan);

  sched.run_until(sim::microseconds(1500));
  EXPECT_DOUBLE_EQ(fabric.up_link(0, 1, 0)->rate_scale(), 0.25);
  EXPECT_DOUBLE_EQ(fabric.down_link(1, 0, 0)->rate_scale(), 0.25);
  sched.run_until(sim::microseconds(2500));
  EXPECT_DOUBLE_EQ(fabric.up_link(0, 1, 0)->rate_scale(), 1.0);
  EXPECT_DOUBLE_EQ(fabric.down_link(1, 0, 0)->rate_scale(), 1.0);
  EXPECT_EQ(injector.transitions(), 2u);
}

TEST(FaultInjector, GraySpecArmsAndClearsWithTelemetry) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());
  telemetry::TraceSink sink;
  fabric.attach_telemetry(&sink);

  fault::GrayFailureSpec g;
  g.drop_prob = 0.05;
  g.corrupt_prob = 0.02;
  g.start = sim::microseconds(500);
  g.stop = sim::milliseconds(3);
  fault::FaultPlan plan;
  plan.add(g);

  fault::FaultInjector injector(fabric, 4);
  injector.arm(plan);
  auto flows = start_cross_leaf_flows(sched, fabric, 4, 1'000'000);

  sched.run_until(sim::milliseconds(1));
  EXPECT_TRUE(fabric.up_link(0, 0, 0)->gray_failure_active());
  EXPECT_TRUE(fabric.down_link(0, 0, 0)->gray_failure_active());

  sched.run();
  EXPECT_FALSE(fabric.up_link(0, 0, 0)->gray_failure_active());
  EXPECT_FALSE(fabric.down_link(0, 0, 0)->gray_failure_active());
  EXPECT_EQ(injector.transitions(), 2u);
  for (auto& f : flows) ASSERT_TRUE(f->complete());
  expect_all_links_conserve(fabric);

  if (telemetry::compiled_in()) {
    EXPECT_NE(sink.find_component("fault_injector"),
              telemetry::kInvalidComponent);
    EXPECT_TRUE(trace_has_event(sink, telemetry::EventType::kFaultGray));
    EXPECT_TRUE(trace_has_event(sink, telemetry::EventType::kLinkDropGray));
  }
}

TEST(FaultInjector, SpineRebootSeversAllItsDownlinksThenRestores) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());

  fault::SwitchRebootSpec r;
  r.kind = fault::SwitchRebootSpec::Kind::kSpine;
  r.index = 0;
  r.at = sim::milliseconds(1);
  r.outage = sim::milliseconds(1);
  r.detection_delay = sim::microseconds(100);
  fault::FaultPlan plan;
  plan.add(r);

  fault::FaultInjector injector(fabric, 5);
  injector.arm(plan);

  sched.run_until(sim::microseconds(1200));
  EXPECT_FALSE(fabric.leaf(0).uplink_live(0));
  EXPECT_FALSE(fabric.leaf(1).uplink_live(0));
  EXPECT_EQ(fabric.spine(0).downlink_count(0), 0u);
  EXPECT_EQ(fabric.spine(0).downlink_count(1), 0u);
  EXPECT_TRUE(fabric.leaf(0).uplink_live(1)) << "spine 1 untouched";

  sched.run_until(sim::microseconds(2200));
  EXPECT_TRUE(fabric.leaf(0).uplink_live(0));
  EXPECT_TRUE(fabric.leaf(1).uplink_live(0));
  EXPECT_EQ(fabric.spine(0).downlink_count(0), 1u);
  EXPECT_EQ(injector.transitions(), 2u);
}

TEST(FaultInjector, LeafRebootSeversItsUplinksOnly) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());

  fault::SwitchRebootSpec r;
  r.kind = fault::SwitchRebootSpec::Kind::kLeaf;
  r.index = 0;
  r.at = sim::milliseconds(1);
  r.outage = sim::milliseconds(1);
  r.detection_delay = sim::microseconds(100);
  fault::FaultPlan plan;
  plan.add(r);

  fault::FaultInjector injector(fabric, 6);
  injector.arm(plan);

  sched.run_until(sim::microseconds(1200));
  EXPECT_FALSE(fabric.leaf(0).uplink_live(0));
  EXPECT_FALSE(fabric.leaf(0).uplink_live(1));
  EXPECT_TRUE(fabric.leaf(1).uplink_live(0)) << "leaf 1 keeps its uplinks";
  EXPECT_TRUE(fabric.leaf(1).uplink_live(1));

  sched.run_until(sim::microseconds(2200));
  EXPECT_TRUE(fabric.leaf(0).uplink_live(0));
  EXPECT_TRUE(fabric.leaf(0).uplink_live(1));
}

TEST(FaultInjector, StaleFeedbackTogglesCeSuppression) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());

  fault::StaleFeedbackSpec s;
  s.leaf = 0;
  s.spine = 1;
  s.start = sim::milliseconds(1);
  s.stop = sim::milliseconds(2);
  fault::FaultPlan plan;
  plan.add(s);

  fault::FaultInjector injector(fabric, 7);
  injector.arm(plan);

  EXPECT_FALSE(fabric.up_link(0, 1, 0)->ce_suppressed());
  sched.run_until(sim::microseconds(1500));
  EXPECT_TRUE(fabric.up_link(0, 1, 0)->ce_suppressed());
  sched.run_until(sim::microseconds(2500));
  EXPECT_FALSE(fabric.up_link(0, 1, 0)->ce_suppressed());
  EXPECT_EQ(injector.transitions(), 2u);
}

// A degrade, gray or stale-feedback window whose stop is at or before its
// start never clears: the fault persists through the drain, and only its
// onset counts as a transition.
TEST(FaultInjector, WindowsThatNeverStopStayInForce) {
  for (const sim::TimeNs stop :
       {sim::microseconds(500), sim::milliseconds(1)}) {
    sim::Scheduler sched;
    net::Fabric fabric(sched, topo2x2(), 1);
    fabric.install_lb(core::conga());

    fault::DegradeSpec d;
    d.leaf = 0;
    d.spine = 1;
    d.rate_scale = 0.5;
    d.start = sim::milliseconds(1);
    d.stop = stop;
    fault::GrayFailureSpec g;
    g.leaf = 1;
    g.spine = 0;
    g.start = sim::milliseconds(1);
    g.stop = stop;
    fault::StaleFeedbackSpec sf;
    sf.leaf = 1;
    sf.spine = 1;
    sf.start = sim::milliseconds(1);
    sf.stop = stop;
    fault::FaultInjector degrade(fabric, 1);
    degrade.arm(fault::FaultPlan{}.add(d));
    fault::FaultInjector gray(fabric, 2);
    gray.arm(fault::FaultPlan{}.add(g));
    fault::FaultInjector stale(fabric, 3);
    stale.arm(fault::FaultPlan{}.add(sf));

    sched.run();
    EXPECT_DOUBLE_EQ(fabric.up_link(0, 1, 0)->rate_scale(), 0.5);
    EXPECT_DOUBLE_EQ(fabric.down_link(1, 0, 0)->rate_scale(), 0.5);
    EXPECT_TRUE(fabric.up_link(1, 0, 0)->gray_failure_active());
    EXPECT_TRUE(fabric.down_link(0, 1, 0)->gray_failure_active());
    EXPECT_TRUE(fabric.up_link(1, 1, 0)->ce_suppressed());
    EXPECT_EQ(degrade.transitions(), 1u);
    EXPECT_EQ(gray.transitions(), 1u);
    EXPECT_EQ(stale.transitions(), 1u);
  }
}

// A reboot restores every link it failed at exactly `at + outage` (the
// control plane follows a detection window later), whatever the outage.
TEST(FaultInjector, RebootRestoresEveryLinkAtAtPlusOutage) {
  net::TopologyConfig topo = topo2x2();
  topo.num_leaves = 3;
  topo.links_per_spine = 2;
  for (const sim::TimeNs outage : {sim::milliseconds(1), sim::TimeNs{0}}) {
    sim::Scheduler sched;
    net::Fabric fabric(sched, topo, 1);
    fabric.install_lb(core::conga());

    fault::SwitchRebootSpec r;
    r.kind = fault::SwitchRebootSpec::Kind::kSpine;
    r.index = 1;
    r.at = sim::milliseconds(1);
    r.outage = outage;
    r.detection_delay = sim::microseconds(100);
    fault::FaultInjector injector(fabric, 5);
    injector.arm(fault::FaultPlan{}.add(r));

    std::vector<net::Link*> rebooted;
    for (int l = 0; l < topo.num_leaves; ++l) {
      for (int p = 0; p < topo.links_per_spine; ++p) {
        rebooted.push_back(fabric.up_link(l, 1, p));
        rebooted.push_back(fabric.down_link(1, l, p));
      }
    }
    if (outage > 0) {
      sched.run_until(r.at + outage - 1);
      for (const net::Link* link : rebooted) {
        EXPECT_FALSE(link->is_up()) << link->name();
      }
    }
    sched.run_until(r.at + outage);
    for (const net::Link* link : rebooted) {
      EXPECT_TRUE(link->is_up()) << link->name();
    }
    EXPECT_EQ(injector.transitions(), 2u);

    sched.run();
    for (int l = 0; l < topo.num_leaves; ++l) {
      EXPECT_EQ(fabric.spine(1).downlink_count(l), 2u) << "leaf " << l;
      for (int u = 0; u < 4; ++u) {
        EXPECT_TRUE(fabric.leaf(l).uplink_live(u)) << "leaf " << l;
      }
    }
  }
}

// The fault/transitions probe counts every edge the injector applied: here
// two per cleared window and one for the gray window that never clears.
TEST(FaultInjector, TransitionsProbeCountsEveryEdge) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo2x2(), 1);
  fabric.install_lb(core::conga());
  telemetry::TraceSink sink;
  fabric.attach_telemetry(&sink);

  fault::DegradeSpec d;
  d.start = sim::milliseconds(1);
  d.stop = sim::milliseconds(2);
  fault::GrayFailureSpec g;
  g.spine = 1;
  g.start = sim::milliseconds(1);
  fault::StaleFeedbackSpec sf;
  sf.leaf = 1;
  sf.start = sim::milliseconds(1);
  sf.stop = sim::milliseconds(3);
  fault::SwitchRebootSpec r;
  r.kind = fault::SwitchRebootSpec::Kind::kLeaf;
  r.index = 1;
  r.at = sim::milliseconds(2);
  fault::FaultPlan plan;
  plan.add(d).add(g).add(sf).add(r);
  fault::FaultInjector injector(fabric, 9);
  injector.arm(plan);
  sched.run();

  const int probe = sink.probes().find("fault/transitions");
  ASSERT_GE(probe, 0);
  EXPECT_EQ(sink.probes().probe(probe).counter(), 7u);
  EXPECT_EQ(injector.transitions(), 7u);
  if (telemetry::compiled_in()) {
    const telemetry::ComponentId comp = sink.find_component("fault_injector");
    std::uint64_t edges = 0;
    for (const telemetry::Event& e : sink.all_events()) {
      if (e.comp == comp) ++edges;
    }
    EXPECT_EQ(edges, 7u);
  }
}

// Flattens a plan to a comparable fingerprint (variant index + every field).
std::vector<std::uint64_t> fingerprint(const fault::FaultPlan& plan) {
  std::vector<std::uint64_t> out;
  auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  auto p = [](double v) {
    return static_cast<std::uint64_t>(std::llround(v * 1e9));
  };
  for (const fault::FaultSpec& spec : plan.faults) {
    out.push_back(spec.index());
    std::visit(
        [&](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, fault::LinkFlapSpec>) {
            for (auto v : {u(s.leaf), u(s.spine), u(s.parallel),
                           u(s.mean_down_dwell), u(s.mean_up_dwell),
                           u(s.detection_delay), u(s.start), u(s.stop)}) {
              out.push_back(v);
            }
          } else if constexpr (std::is_same_v<T, fault::DegradeSpec>) {
            for (auto v : {u(s.leaf), u(s.spine), u(s.parallel),
                           p(s.rate_scale), u(s.both_directions), u(s.start),
                           u(s.stop)}) {
              out.push_back(v);
            }
          } else if constexpr (std::is_same_v<T, fault::GrayFailureSpec>) {
            for (auto v : {u(s.leaf), u(s.spine), u(s.parallel),
                           p(s.drop_prob), p(s.corrupt_prob),
                           u(s.both_directions), u(s.start), u(s.stop)}) {
              out.push_back(v);
            }
          } else if constexpr (std::is_same_v<T, fault::SwitchRebootSpec>) {
            for (auto v : {u(s.kind), u(s.index), u(s.at), u(s.outage),
                           u(s.detection_delay)}) {
              out.push_back(v);
            }
          } else {
            for (auto v : {u(s.leaf), u(s.spine), u(s.parallel), u(s.start),
                           u(s.stop)}) {
              out.push_back(v);
            }
          }
        },
        spec);
  }
  return out;
}

TEST(FaultPlan, RandomPlanIsDeterministicInTheSeed) {
  const net::TopologyConfig topo = topo2x2();
  EXPECT_EQ(fingerprint(fault::make_random_plan(topo, 7)),
            fingerprint(fault::make_random_plan(topo, 7)));
  EXPECT_NE(fingerprint(fault::make_random_plan(topo, 7)),
            fingerprint(fault::make_random_plan(topo, 8)));
}

TEST(FaultPlan, RandomPlanRespectsBoundsAndClearsByHorizon) {
  const net::TopologyConfig topo = topo2x2();
  fault::RandomPlanConfig cfg;
  cfg.min_faults = 2;
  cfg.max_faults = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const fault::FaultPlan plan = fault::make_random_plan(topo, seed, cfg);
    EXPECT_GE(plan.size(), 2u);
    EXPECT_LE(plan.size(), 6u);
    for (const fault::FaultSpec& spec : plan.faults) {
      std::visit(
          [&](const auto& s) {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, fault::SwitchRebootSpec>) {
              EXPECT_GE(s.at, 0);
              EXPECT_LE(s.at + s.outage, cfg.horizon);
            } else {
              EXPECT_GE(s.start, 0);
              EXPECT_GT(s.stop, s.start) << "random faults must clear";
              EXPECT_LE(s.stop, cfg.horizon);
            }
          },
          spec);
    }
  }
}

TEST(FaultPlan, PodPlansNameOnlyExistingLinks) {
  // On a pod fabric a leaf links only to its own pod's spines: every link a
  // seeded plan targets must exist.
  net::TopologyConfig topo = topo2x2(2);
  topo.num_pods = 2;
  topo.num_leaves = 4;
  topo.num_spines = 4;
  topo.links_per_spine = 2;
  topo.num_cores = 2;
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 1);
  fault::RandomPlanConfig cfg;
  cfg.min_faults = 4;
  cfg.max_faults = 8;
  int links_named = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const fault::FaultPlan& plan :
         {fault::make_random_plan(topo, seed, cfg),
          fault::make_gray_plan(topo, seed, cfg.horizon)}) {
      for (const fault::FaultSpec& spec : plan.faults) {
        std::visit(
            [&](const auto& s) {
              using T = std::decay_t<decltype(s)>;
              if constexpr (!std::is_same_v<T, fault::SwitchRebootSpec>) {
                ++links_named;
                EXPECT_NE(fabric.up_link(s.leaf, s.spine, s.parallel), nullptr)
                    << "seed " << seed << ": l" << s.leaf << "s" << s.spine;
                EXPECT_NE(fabric.down_link(s.spine, s.leaf, s.parallel),
                          nullptr);
              }
            },
            spec);
      }
    }
  }
  EXPECT_GT(links_named, 40);
}

workload::ExperimentConfig digest_scenario() {
  workload::ExperimentConfig s;
  s.topo = topo2x2(4);
  s.lb = core::conga();
  s.dist = workload::fixed_size(100'000);
  s.load = 0.3;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(5);
  return s;
}

TEST(FaultInjector, EmptyPlanNeverTouchesTheFaultSeed) {
  // Pay-for-what-you-use: with no faults, the fault seed must be dead — two
  // runs differing only in the injector seed are bit-identical.
  workload::ExperimentConfig a = digest_scenario();
  a.fabric_hook = fault::arming_hook({}, 11);
  workload::ExperimentConfig b = digest_scenario();
  b.fabric_hook = fault::arming_hook({}, 999);
  const debug::RunDigests ra = debug::run_digest_trial(a);
  const debug::RunDigests rb = debug::run_digest_trial(b);
  ASSERT_GT(ra.flows, 0u);
  EXPECT_TRUE(ra == rb);
}

TEST(FaultInjector, GrayCampaignReproducesAndPerturbsTheSchedule) {
  workload::ExperimentConfig s = digest_scenario();
  fault::GrayFailureSpec g;
  g.drop_prob = 0.02;
  g.corrupt_prob = 0.01;
  g.start = sim::milliseconds(1);
  g.stop = sim::milliseconds(4);
  fault::FaultPlan plan;
  plan.add(g);
  s.fabric_hook = fault::arming_hook(plan, 11);

  const debug::RunDigests a = debug::run_digest_trial(s);
  const debug::RunDigests b = debug::run_digest_trial(s);
  ASSERT_GT(a.flows, 0u);
  EXPECT_TRUE(a.drained) << "faults clear before the drain";
  EXPECT_TRUE(a == b) << "a fault campaign must replay bit-for-bit";

  const debug::RunDigests clean = debug::run_digest_trial(digest_scenario());
  EXPECT_NE(a.trace, clean.trace) << "the campaign must actually do something";
}

}  // namespace
}  // namespace conga
