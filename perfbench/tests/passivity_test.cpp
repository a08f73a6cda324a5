// The benchmark's instrumentation must not change what it measures: a cell
// run with the decorators, sinks and hooks gives the same FCT, event-trace
// and telemetry digests as the plain run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "campaign/experiment_spec.hpp"
#include "cells.hpp"
#include "instrument.hpp"
#include "stats/digest.hpp"
#include "workload/experiment.hpp"

namespace perfbench {
namespace {

// policy_grid's policies, plus the probe-plane policy, the one that hands
// probe packets (and their ownership) to its balancer.
const char* const kPolicies[] = {"ecmp", "conga", "letflow", "drill", "hula"};

campaign::ExperimentSpec small_spec(const std::string& policy) {
  campaign::ExperimentSpec s;
  s.dist = "enterprise";
  s.policy = policy;
  s.load = 0.6;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 8;
  s.min_rto_ns = sim::milliseconds(10);
  s.warmup_ns = sim::milliseconds(2);
  s.measure_ns = sim::milliseconds(3);
  s.fabric_seed = 3;
  s.traffic_seed = 11;
  return s;
}

struct Digests {
  std::uint64_t fct = 0;
  std::uint64_t trace = 0;
  std::uint64_t telemetry = 0;
  std::string lb_name;
};

/// Runs the spec with a full-mask sink and an event-trace digest attached,
/// optionally wrapping every balancer in a TimedLb.
Digests run(const std::string& policy, bool decorate) {
  workload::ExperimentConfig cfg;
  std::string err;
  EXPECT_TRUE(campaign::to_experiment_config(small_spec(policy), cfg, err))
      << err;
  CellProbe probe;  // owns the decorators' stats
  probe.traced = true;
  if (decorate) {
    cfg.lb = [inner = cfg.lb, &probe](net::LeafSwitch& leaf,
                                      const net::TopologyConfig& topo,
                                      std::uint64_t seed)
        -> std::unique_ptr<lb::LoadBalancer> {
      return std::make_unique<TimedLb>(inner(leaf, topo, seed), &probe);
    };
  }
  auto sink = std::make_shared<telemetry::TraceSink>();
  auto trace = std::make_shared<stats::TraceDigest>();
  auto lb_name = std::make_shared<std::string>();
  cfg.fabric_hook = [inner = cfg.fabric_hook, sink, trace,
                     lb_name](net::Fabric& f) {
    if (inner) inner(f);
    f.attach_telemetry(sink.get());
    f.scheduler().set_trace_hook([trace](sim::TimeNs t, sim::EventId seq) {
      trace->add(static_cast<std::uint64_t>(t));
      trace->add(seq);
    });
    *lb_name = f.leaf(0).load_balancer()->name();
  };
  const workload::ExperimentResult r = workload::run_fct_experiment(cfg);
  EXPECT_TRUE(r.drained) << policy;
  if (decorate && policy == "hula") {
    EXPECT_GT(probe.lb.probe_packets, 0U) << "probe packets never forwarded";
  }
  return Digests{r.fct_digest, trace->value(), sink->digest(), *lb_name};
}

TEST(Passivity, LbDecoratorForwardsEveryHook) {
  for (const char* policy : kPolicies) {
    const Digests plain = run(policy, false);
    const Digests decorated = run(policy, true);
    EXPECT_EQ(plain.fct, decorated.fct) << policy;
    EXPECT_EQ(plain.trace, decorated.trace) << policy;
    // attach_telemetry reaches the wrapped balancer's tables.
    EXPECT_EQ(plain.telemetry, decorated.telemetry) << policy;
    EXPECT_EQ(plain.lb_name, decorated.lb_name) << policy;
  }
}

TEST(Passivity, InstrumentedCellsMatchThePlainRun) {
  for (const char* policy : kPolicies) {
    workload::ExperimentConfig cfg;
    std::string err;
    ASSERT_TRUE(campaign::to_experiment_config(small_spec(policy), cfg, err));
    const std::uint64_t plain = workload::run_fct_experiment(cfg).fct_digest;

    CellSpec cell{policy, false, small_spec(policy), {}};
    const CellResult timed = run_cell(cell, false);
    const CellResult traced = run_cell(cell, true);
    EXPECT_EQ(timed.digest, plain) << policy;
    EXPECT_EQ(traced.digest, plain) << policy;
    EXPECT_TRUE(timed.net_read && timed.net.conserved) << policy;
    EXPECT_EQ(timed.net.hops, traced.net.hops) << policy;
    EXPECT_TRUE(traced.counts.complete) << policy;
    EXPECT_GT(traced.events, 0U) << policy;
    EXPECT_GT(traced.counts.dre_updates, 0U) << policy;
  }
}

TEST(Passivity, CongaTracesCountItsTables) {
  CellSpec cell{"conga", false, small_spec("conga"), {}};
  const CellResult traced = run_cell(cell, true);
  EXPECT_GT(traced.counts.flowlets, 0U);
  EXPECT_GT(traced.counts.table_updates, 0U);
  EXPECT_LE(traced.counts.path_changes, traced.counts.flowlets);
  EXPECT_GT(traced.lb.select.calls, 0U);
  EXPECT_GT(traced.lb.select.sampled, 0U);
}

}  // namespace
}  // namespace perfbench
