// Determinism regression tests: the digest primitives behave as specified
// (order-insensitive vs order-sensitive), and a small leaf-spine scenario run
// twice with the same seeds produces bit-identical FCT and event-trace
// digests — the library-level version of the tools/determinism_audit gate.
#include "debug/determinism.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/experiment_spec.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "lb/factories.hpp"
#include "lb_ext/policies.hpp"
#include "runtime/parallel_runner.hpp"
#include "stats/digest.hpp"
#include "stats/fct_collector.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga {
namespace {

TEST(Digest, UnorderedDigestIgnoresOrder) {
  stats::UnorderedDigest a, b;
  for (std::uint64_t v : {7u, 42u, 999u, 7u}) a.add(v);
  for (std::uint64_t v : {999u, 7u, 7u, 42u}) b.add(v);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
}

TEST(Digest, UnorderedDigestSeesContentChanges) {
  stats::UnorderedDigest a, b, c;
  for (std::uint64_t v : {7u, 42u}) a.add(v);
  for (std::uint64_t v : {7u, 43u}) b.add(v);
  for (std::uint64_t v : {7u, 42u, 42u}) c.add(v);
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());  // multiplicity matters
}

TEST(Digest, TraceDigestIsOrderSensitive) {
  stats::TraceDigest ab, ba;
  ab.add(1);
  ab.add(2);
  ba.add(2);
  ba.add(1);
  EXPECT_NE(ab.value(), ba.value());

  stats::TraceDigest prefix;
  prefix.add(1);
  EXPECT_NE(prefix.value(), ab.value());
}

TEST(Digest, HashDoubleCollapsesSignedZero) {
  EXPECT_EQ(stats::hash_double(0.0), stats::hash_double(-0.0));
  EXPECT_NE(stats::hash_double(1.0), stats::hash_double(1.0000000001));
}

TEST(Digest, FctDigestIsOrderInsensitiveOverRecords) {
  stats::FctCollector fwd, rev, other;
  fwd.record(1000, 50, 10);
  fwd.record(2000, 70, 20);
  rev.record(2000, 70, 20);
  rev.record(1000, 50, 10);
  other.record(1000, 50, 10);
  other.record(2000, 71, 20);  // one ns of FCT drift
  EXPECT_EQ(stats::fct_digest(fwd), stats::fct_digest(rev));
  EXPECT_NE(stats::fct_digest(fwd), stats::fct_digest(other));
}

TEST(Digest, FctDigestFieldsAreNotInterchangeable) {
  stats::FctCollector a, b;
  a.record(1000, 50, 10);
  b.record(1000, 10, 50);  // fct and optimal swapped
  EXPECT_NE(stats::fct_digest(a), stats::fct_digest(b));
}

workload::ExperimentConfig small_scenario(std::uint64_t fabric_seed,
                                         std::uint64_t traffic_seed) {
  workload::ExperimentConfig s;
  s.topo.num_leaves = 3;
  s.topo.num_spines = 2;
  s.topo.hosts_per_leaf = 4;
  s.lb = core::conga();
  s.dist = workload::fixed_size(50'000);
  s.load = 0.4;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(5);
  s.fabric_seed = fabric_seed;
  s.traffic_seed = traffic_seed;
  return s;
}

TEST(DeterminismRegression, SameSeedsSameDigests) {
  const debug::RunDigests a = debug::run_digest_trial(small_scenario(1, 7));
  const debug::RunDigests b = debug::run_digest_trial(small_scenario(1, 7));
  ASSERT_GT(a.flows, 0u);
  EXPECT_EQ(a.fct, b.fct);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(a == b);
}

TEST(DeterminismRegression, SameSeedsSameDigestsUnderEcmp) {
  auto s = small_scenario(3, 11);
  s.lb = lb::ecmp();
  const debug::RunDigests a = debug::run_digest_trial(s);
  const debug::RunDigests b = debug::run_digest_trial(s);
  ASSERT_GT(a.flows, 0u);
  EXPECT_TRUE(a == b);
}

TEST(DeterminismRegression, GrayFailureCampaignIsDeterministicAcrossJobs) {
  // A gray-failure campaign adds a second consumer of randomness (per-link
  // loss draws). The digests must still be a pure function of the scenario:
  // identical when the same cell runs sequentially or on a thread pool.
  auto scenario = [](std::size_t cell) {
    workload::ExperimentConfig s = small_scenario(1, 7 + cell);
    fault::GrayFailureSpec g;
    g.leaf = static_cast<int>(cell % 3);
    g.drop_prob = 0.02;
    g.corrupt_prob = 0.01;
    g.start = sim::milliseconds(1);
    g.stop = sim::milliseconds(4);
    fault::FaultPlan plan;
    plan.add(g);
    s.fabric_hook = fault::arming_hook(plan, 11);
    return s;
  };
  const std::size_t kCells = 4;
  const auto sequential = runtime::parallel_map<debug::RunDigests>(
      kCells, 1, [&](std::size_t i) { return debug::run_digest_trial(scenario(i)); });
  const auto threaded = runtime::parallel_map<debug::RunDigests>(
      kCells, 4, [&](std::size_t i) { return debug::run_digest_trial(scenario(i)); });
  for (std::size_t i = 0; i < kCells; ++i) {
    ASSERT_GT(sequential[i].flows, 0u);
    EXPECT_TRUE(sequential[i] == threaded[i]) << "cell " << i;
  }
}

TEST(DeterminismRegression, DifferentTrafficSeedDiffers) {
  const debug::RunDigests a = debug::run_digest_trial(small_scenario(1, 7));
  const debug::RunDigests b = debug::run_digest_trial(small_scenario(1, 8));
  // Different arrivals: both digests must move (the trace certainly; the FCT
  // digest with overwhelming probability).
  EXPECT_NE(a.trace, b.trace);
  EXPECT_NE(a.fct, b.fct);
}

// The digest instrumentation is passive: the helper's FCT digest is the one
// a plain run_fct_experiment call reports, with the telemetry sink attached
// or not, and the sink does not move the schedule either.
TEST(DigestTrial, InstrumentationIsPassive) {
  const workload::ExperimentConfig cfg = small_scenario(1, 7);
  const workload::ExperimentResult plain = workload::run_fct_experiment(cfg);
  const debug::RunDigests on = debug::run_digest_trial(cfg, true);
  const debug::RunDigests off = debug::run_digest_trial(cfg, false);
  ASSERT_GT(plain.flows, 0u);
  EXPECT_EQ(on.fct, plain.fct_digest);
  EXPECT_EQ(off.fct, plain.fct_digest);
  EXPECT_EQ(on.flows, plain.flows);
  EXPECT_EQ(on.drained, plain.drained);
  EXPECT_EQ(on.trace, off.trace);
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(off.telemetry, 0u);
}

// "drill" installs its spine half in the config's own fabric hook. The helper
// must chain that hook behind its instrumentation, not replace it: the runs
// reproduce, match the plain run, and differ from the same cell with the
// policy hook dropped.
TEST(DigestTrial, ChainsThePolicyFabricHook) {
  campaign::ExperimentSpec spec;
  spec.policy = "drill";
  spec.topo = net::testbed_baseline();
  spec.topo.hosts_per_leaf = 4;
  spec.dist = "fixed:50000";
  spec.load = 0.5;
  spec.warmup_ns = sim::milliseconds(1);
  spec.measure_ns = sim::milliseconds(5);
  workload::ExperimentConfig cfg;
  std::string err;
  ASSERT_TRUE(campaign::to_experiment_config(spec, cfg, err)) << err;
  ASSERT_TRUE(cfg.fabric_hook);

  const debug::RunDigests a = debug::run_digest_trial(cfg);
  const debug::RunDigests b = debug::run_digest_trial(cfg);
  ASSERT_GT(a.flows, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fct, workload::run_fct_experiment(cfg).fct_digest);

  workload::ExperimentConfig unhooked = cfg;
  unhooked.fabric_hook = nullptr;
  EXPECT_NE(debug::run_digest_trial(unhooked).trace, a.trace)
      << "the spine half must change the schedule";
}

// Every registered policy on both testbed topologies (Fig 7), on the
// baseline under two "random" fault campaigns, and on a two-pod fabric with
// a core tier (spines hash onto core uplinks, and choose among parallel
// downlinks inside each pod), pinned in
// tests/data/policy_digests.txt: the balancers, and everything they share,
// must keep each policy's results (fct), schedule (trace) and event count
// bit-identical across refactors. Only runtime faults withdraw an uplink
// that a live flowlet entry still points at; fault seeds 5 and 6 are two
// whose digests move for every flowlet policy (CONGA, CONGA-Flow, HULA,
// Local, LocalEq, Weighted, LetFlow) when the cached uplink is reused
// without the usable check. On a mismatch the test prints the lines this
// build produced, in the file's format.
TEST(PolicyDigests, EveryRegisteredPolicyMatchesItsPin) {
  std::map<std::string, std::string> pinned;  // "<cell> <policy>" -> digests
  std::ifstream in(CONGA_TEST_DATA_DIR "/policy_digests.txt");
  ASSERT_TRUE(in) << "missing tests/data/policy_digests.txt";
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string cell, policy, digests;
    fields >> cell >> policy >> std::ws;
    std::getline(fields, digests);
    pinned[cell + " " + policy] = digests;
  }

  struct Cell {
    const char* name;
    net::TopologyConfig topo;
    campaign::FaultSpec fault;
  };
  net::TopologyConfig pods;
  pods.num_pods = 2;
  pods.num_leaves = 4;
  pods.num_spines = 4;
  pods.num_cores = 2;
  pods.links_per_spine = 2;
  const Cell cells[] = {
      {"baseline", net::testbed_baseline(), {"none", 1}},
      {"link-failure", net::testbed_link_failure(), {"none", 1}},
      {"faults-5", net::testbed_baseline(), {"random", 5}},
      {"faults-6", net::testbed_baseline(), {"random", 6}},
      {"pods", pods, {"none", 1}}};
  std::string produced;
  std::size_t runs = 0;
  for (const Cell& c : cells) {
    for (const lb_ext::PolicyInfo& p : lb_ext::policy_catalog()) {
      campaign::ExperimentSpec spec;
      spec.policy = p.name;
      spec.topo = c.topo;
      spec.topo.hosts_per_leaf = 8;
      spec.load = 0.6;
      spec.warmup_ns = sim::milliseconds(1);
      spec.measure_ns = sim::milliseconds(3);
      spec.max_drain_ns = sim::milliseconds(20);
      spec.fault = c.fault;
      workload::ExperimentConfig cfg;
      std::string err;
      ASSERT_TRUE(campaign::to_experiment_config(spec, cfg, err)) << err;
      const debug::RunDigests d = debug::run_digest_trial(cfg, false);
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "fct=%016" PRIx64 " trace=%016" PRIx64 " events=%" PRIu64,
                    d.fct, d.trace, d.events);
      const std::string key = std::string(c.name) + " " + p.name;
      produced += key + " " + buf + "\n";
      const auto it = pinned.find(key);
      EXPECT_TRUE(it != pinned.end() && it->second == buf)
          << key << ": " << buf << ", pinned "
          << (it == pinned.end() ? "nothing" : it->second);
      ++runs;
    }
  }
  EXPECT_EQ(pinned.size(), runs) << "pins for unregistered policies";
  if (HasFailure()) std::printf("produced:\n%s", produced.c_str());
}

}  // namespace
}  // namespace conga
