// Tests for the runtime invariant checker (src/debug/invariants.hpp).
//
// Each invariant class is exercised directly with violating inputs — a
// deliberate negative dequeue, a time regression, a DRE underflow, etc. —
// and the test asserts that the checker fires with the right invariant name
// and a report carrying the node and simulated time. A final test runs a
// real (small) simulation under a capture handler and asserts zero
// violations, which is the CONGA_CHECK_INVARIANTS=ON gate future refactors
// run under.
#include "debug/invariants.hpp"

#include <gtest/gtest.h>

#include "debug/determinism.hpp"
#include "lb/factories.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga {
namespace {

using debug::ScopedViolationCapture;

TEST(ViolationReporting, CaptureInterceptsAndCounts) {
  const std::uint64_t before = debug::violation_count();
  ScopedViolationCapture cap;
  debug::report({"nodeX", sim::microseconds(3), "test.class", "details"});
  ASSERT_EQ(cap.count(), 1u);
  EXPECT_EQ(cap.violations()[0].node, "nodeX");
  EXPECT_EQ(cap.violations()[0].time, sim::microseconds(3));
  EXPECT_EQ(cap.violations()[0].invariant, "test.class");
  EXPECT_TRUE(cap.fired("test.class"));
  EXPECT_FALSE(cap.fired("other.class"));
  EXPECT_EQ(debug::violation_count(), before + 1);
}

TEST(ViolationReporting, FormatNamesNodeTimeAndInvariant) {
  const std::string s = debug::format_violation(
      {"leaf3", 12345, "queue.byte-conservation", "delta=-40"});
  EXPECT_NE(s.find("leaf3"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("queue.byte-conservation"), std::string::npos);
  EXPECT_NE(s.find("delta=-40"), std::string::npos);
}

TEST(ViolationReporting, CaptureRestoresPreviousHandler) {
  int outer_hits = 0;
  auto prev = debug::set_violation_handler(
      [&outer_hits](const debug::Violation&) { ++outer_hits; });
  {
    ScopedViolationCapture cap;
    debug::report({"n", 0, "inner", ""});
    EXPECT_EQ(cap.count(), 1u);
    EXPECT_EQ(outer_hits, 0);
  }
  debug::report({"n", 0, "outer", ""});
  EXPECT_EQ(outer_hits, 1);
  debug::set_violation_handler(std::move(prev));
}

TEST(TimeMonotonicity, RegressionFires) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_time_monotonic("scheduler", 100, 100));
  EXPECT_TRUE(debug::check_time_monotonic("scheduler", 100, 150));
  EXPECT_EQ(cap.count(), 0u);
  // An event timestamped before the current simulated time: a regression.
  EXPECT_FALSE(debug::check_time_monotonic("scheduler", 100, 50));
  EXPECT_TRUE(cap.fired("scheduler.time-monotonic"));
}

TEST(ByteConservation, NegativeDequeueFires) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_byte_conservation("link", 10, 1000, 400, 600));
  EXPECT_EQ(cap.count(), 0u);
  // "Negative dequeue": more bytes left the queue than ever entered it.
  EXPECT_FALSE(debug::check_byte_conservation("link", 10, 1000, 1500, 0));
  // Leak: bytes vanished without being dequeued.
  EXPECT_FALSE(debug::check_byte_conservation("link", 10, 1000, 400, 0));
  EXPECT_EQ(cap.count(), 2u);
  EXPECT_TRUE(cap.fired("queue.byte-conservation"));
  EXPECT_EQ(cap.violations()[0].node, "link");
}

TEST(QueueBounds, OverCapacityAndEmptinessMismatchFire) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_queue_bounds("q", 0, 500, 1000, 1));
  EXPECT_TRUE(debug::check_queue_bounds("q", 0, 0, 1000, 0));
  EXPECT_EQ(cap.count(), 0u);
  EXPECT_FALSE(debug::check_queue_bounds("q", 0, 1500, 1000, 2));
  EXPECT_FALSE(debug::check_queue_bounds("q", 0, 100, 1000, 0));
  EXPECT_FALSE(debug::check_queue_bounds("q", 0, 0, 1000, 3));
  EXPECT_EQ(cap.count(), 3u);
  EXPECT_TRUE(cap.fired("queue.occupancy-bounds"));
}

TEST(DreRegister, UnderflowAndDecayGrowthFire) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_dre_register("link", 0, 100.0, 87.5));
  EXPECT_TRUE(debug::check_dre_register("link", 0, 100.0, 100.0));
  EXPECT_TRUE(debug::check_dre_register("link", 0, 0.0, 0.0));
  EXPECT_EQ(cap.count(), 0u);
  // Underflow: the register went negative.
  EXPECT_FALSE(debug::check_dre_register("link", 0, 10.0, -1.0));
  // Decay that *increased* the register.
  EXPECT_FALSE(debug::check_dre_register("link", 0, 10.0, 20.0));
  EXPECT_EQ(cap.count(), 2u);
  EXPECT_TRUE(cap.fired("dre.register-bounds"));
}

TEST(FlowletEntry, FutureTimestampAndStaleHitFire) {
  const sim::TimeNs gap = sim::microseconds(500);
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_flowlet_entry("leaf0/flowlets", 1000, 800, gap,
                                         true, 2));
  EXPECT_TRUE(debug::check_flowlet_entry("leaf0/flowlets", 1000, 900, gap,
                                         false, -1));
  EXPECT_EQ(cap.count(), 0u);
  // last_seen in the future of the lookup.
  EXPECT_FALSE(debug::check_flowlet_entry("leaf0/flowlets", 1000, 2000, gap,
                                          true, 2));
  // A hit returned from an invalid entry.
  EXPECT_FALSE(debug::check_flowlet_entry("leaf0/flowlets", 1000, 800, gap,
                                          false, 2));
  // A hit returned long past any expiry mode's horizon.
  EXPECT_FALSE(debug::check_flowlet_entry(
      "leaf0/flowlets", 10 * gap, 0, gap, true, 2));
  EXPECT_EQ(cap.count(), 3u);
  EXPECT_TRUE(cap.fired("flowlet.age-consistency"));
}

TEST(TcpWindow, OrderingAndNegativeCwndFire) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_tcp_window("tcp", 0, 100, 200, 300, 14600.0));
  EXPECT_TRUE(debug::check_tcp_window("tcp", 0, 0, 0, 0, 0.0));
  EXPECT_EQ(cap.count(), 0u);
  EXPECT_FALSE(debug::check_tcp_window("tcp", 0, 250, 200, 300, 14600.0));
  EXPECT_FALSE(debug::check_tcp_window("tcp", 0, 100, 400, 300, 14600.0));
  EXPECT_FALSE(debug::check_tcp_window("tcp", 0, 100, 200, 300, -1.0));
  EXPECT_EQ(cap.count(), 3u);
  EXPECT_TRUE(cap.fired("tcp.sequence-window"));
}

TEST(GenericCondition, FiresWithCallerClass) {
  ScopedViolationCapture cap;
  EXPECT_TRUE(debug::check_condition(true, "leaf1", 5, "leaf.uplink-validity",
                                     "unused"));
  EXPECT_EQ(cap.count(), 0u);
  EXPECT_FALSE(debug::check_condition(false, "leaf1", 5,
                                      "leaf.uplink-validity", "bad uplink"));
  ASSERT_TRUE(cap.fired("leaf.uplink-validity"));
  EXPECT_EQ(cap.violations()[0].detail, "bad uplink");
}

// A healthy queue run never trips the hooks (meaningful when the library is
// built with CONGA_CHECK_INVARIANTS=ON; trivially true otherwise).
TEST(HookIntegration, HealthyQueueRaisesNothing) {
  ScopedViolationCapture cap;
  net::DropTailQueue q(3000);
  q.set_label("test-queue");
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {  // 4 x 1000 > capacity: last one drops
      net::PacketPtr p = net::make_packet();
      p->size_bytes = 1000;
      q.enqueue(std::move(p), sim::microseconds(round * 10 + i));
    }
    while (!q.empty()) q.dequeue(sim::microseconds(round * 10 + 5));
  }
  EXPECT_EQ(q.stats().enqueued_bytes,
            q.stats().dequeued_bytes);  // all drained
  EXPECT_EQ(q.stats().dropped_pkts, 3u);
  EXPECT_EQ(cap.count(), 0u);
}

// The scheduler's queue is exact only for keys above the last dispatch, so
// scheduling on a ticket that has passed must be caught where the hooks are
// compiled in; without them it is an unchecked precondition.
TEST(HookIntegration, SchedulingOnAPassedTicketFires) {
#if defined(CONGA_CHECK_INVARIANTS) && CONGA_CHECK_INVARIANTS
  sim::Scheduler sched;
  const sim::Ticket tk = sched.reserve_at(sim::microseconds(1));
  sched.run_until(sim::microseconds(2));
  ASSERT_TRUE(sched.passed(tk));
  ScopedViolationCapture cap;
  sched.schedule(tk, [] {});
  EXPECT_TRUE(cap.fired("scheduler.ticket-passed"));
  // A ticket that has not passed is fine.
  const sim::Ticket later = sched.reserve_at(sim::microseconds(3));
  sched.schedule(later, [] {});
  EXPECT_EQ(cap.count(), 1u);
#else
  GTEST_SKIP() << "invariant hooks are compiled out "
                  "(build with -DCONGA_CHECK_INVARIANTS=ON)";
#endif
}

// A ticket holds at most one live callback: its seq is the event's id, so a
// second one could not be told apart. Scheduling again after a cancel is
// fine. Also an assert, so the check is only observed with NDEBUG.
TEST(HookIntegration, SchedulingTwiceOnATicketFires) {
#if defined(CONGA_CHECK_INVARIANTS) && CONGA_CHECK_INVARIANTS && \
    defined(NDEBUG)
  sim::Scheduler sched;
  const sim::Ticket tk = sched.reserve_at(sim::microseconds(1));
  ScopedViolationCapture cap;
  const sim::EventId first = sched.schedule(tk, [] {});
  sched.cancel(first);
  int fired = 0;
  sched.schedule(tk, [&] { ++fired; });
  EXPECT_EQ(cap.count(), 0u) << "a cancelled ticket may be scheduled again";
  sched.schedule(tk, [&] { fired += 10; });
  EXPECT_TRUE(cap.fired("scheduler.ticket-one-callback"));
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_EQ(sched.pending(), 1u) << "the second callback is dropped";
  sched.run();
  EXPECT_EQ(fired, 1);
#else
  GTEST_SKIP() << "invariant hooks are compiled out or asserts are on "
                  "(build with -DCONGA_CHECK_INVARIANTS=ON and NDEBUG)";
#endif
}

TEST(HookIntegration, PostingOnAPassedTicketFires) {
#if defined(CONGA_CHECK_INVARIANTS) && CONGA_CHECK_INVARIANTS
  struct Ignore final : sim::Scheduler::Target {
    void on_event(std::uint32_t) override {}
  } target;
  sim::Scheduler sched;
  const sim::Scheduler::TargetId id = sched.add_target(&target);
  const sim::Ticket tk = sched.reserve_at(sim::microseconds(1));
  sched.run_until(sim::microseconds(2));
  ASSERT_TRUE(sched.passed(tk));
  ScopedViolationCapture cap;
  sched.post(tk, id, 0);
  EXPECT_TRUE(cap.fired("scheduler.ticket-passed"));
  // A ticket that has not passed is fine.
  const sim::Ticket later = sched.reserve_at(sim::microseconds(3));
  sched.post(later, id, 0);
  EXPECT_EQ(cap.count(), 1u);
#else
  GTEST_SKIP() << "invariant hooks are compiled out "
                  "(build with -DCONGA_CHECK_INVARIANTS=ON)";
#endif
}

// End-to-end: a real (small) fabric simulation completes with zero
// violations. This is the CONGA_CHECK_INVARIANTS=ON integration gate.
TEST(HookIntegration, SmallSimulationRunsCleanly) {
  ScopedViolationCapture cap;
  workload::ExperimentConfig s;
  s.topo.num_leaves = 2;
  s.topo.num_spines = 2;
  s.topo.hosts_per_leaf = 4;
  s.lb = core::conga();
  s.dist = workload::fixed_size(50'000);
  s.load = 0.4;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(5);
  const debug::RunDigests d = debug::run_digest_trial(s);
  EXPECT_GT(d.events, 0u);
  EXPECT_GT(d.flows, 0u);
  EXPECT_TRUE(d.drained);
  EXPECT_EQ(cap.count(), 0u) << (cap.count() > 0
                                     ? debug::format_violation(
                                           cap.violations()[0])
                                     : "");
}

}  // namespace
}  // namespace conga
