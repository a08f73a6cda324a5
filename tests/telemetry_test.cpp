// Telemetry subsystem tests: ring wraparound, category masks, exporter
// schema, probe sampling, fabric instrumentation, and trace-digest
// determinism (including across parallel-runner jobs counts).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "debug/determinism.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "runtime/parallel_runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/traffic_gen.hpp"

namespace conga {
namespace {

using telemetry::Category;
using telemetry::ComponentId;
using telemetry::Event;
using telemetry::EventType;
using telemetry::TraceSink;
using telemetry::TraceSinkConfig;

TEST(TraceSink, RecordsTypedEventsInSeqOrder) {
  TraceSink sink;
  const ComponentId q = sink.intern_component("q0");
  sink.record(EventType::kQueueEnqueue, q, 10, 1500, 1500);
  sink.record(EventType::kQueueDequeue, q, 20, 1500, 0);
  const std::vector<Event> ev = sink.events(q);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].type, EventType::kQueueEnqueue);
  EXPECT_EQ(ev[0].t, 10);
  EXPECT_EQ(ev[0].a, 1500u);
  EXPECT_EQ(ev[1].type, EventType::kQueueDequeue);
  EXPECT_LT(ev[0].seq, ev[1].seq);
  EXPECT_EQ(sink.total_recorded(), 2u);
  EXPECT_EQ(sink.total_overwritten(), 0u);
}

TEST(TraceSink, ComponentInterningIsIdempotent) {
  TraceSink sink;
  const ComponentId a = sink.intern_component("leaf0");
  const ComponentId b = sink.intern_component("leaf1");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.intern_component("leaf0"), a);
  EXPECT_EQ(sink.find_component("leaf1"), b);
  EXPECT_EQ(sink.find_component("nope"), telemetry::kInvalidComponent);
  EXPECT_EQ(sink.component_name(a), "leaf0");
  EXPECT_EQ(sink.component_count(), 2u);
}

TEST(TraceSink, RingWrapsKeepingNewestEvents) {
  TraceSinkConfig cfg;
  cfg.ring_capacity = 4;
  TraceSink sink(cfg);
  const ComponentId c = sink.intern_component("c");
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record(EventType::kDreUpdate, c, static_cast<sim::TimeNs>(i), i, 0);
  }
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.recorded(c), 10u);
  EXPECT_EQ(sink.total_overwritten(), 6u);
  const std::vector<Event> ev = sink.events(c);
  ASSERT_EQ(ev.size(), 4u);
  // Oldest-first unwrap: the four newest events, a = 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ev[i].a, 6 + i);
    if (i > 0) {
      EXPECT_LT(ev[i - 1].seq, ev[i].seq);
    }
  }
}

TEST(TraceSink, DigestIndependentOfRingCapacity) {
  TraceSinkConfig small_cfg;
  small_cfg.ring_capacity = 2;
  TraceSink small(small_cfg);
  TraceSink big;  // default 8192
  for (TraceSink* s : {&small, &big}) {
    const ComponentId c = s->intern_component("c");
    for (std::uint64_t i = 0; i < 100; ++i) {
      s->record(EventType::kQueueEnqueue, c, static_cast<sim::TimeNs>(i), i,
                2 * i);
    }
  }
  // The streaming digest covers every event ever recorded, including those
  // the small ring overwrote.
  EXPECT_EQ(small.digest(), big.digest());
  EXPECT_GT(small.total_overwritten(), 0u);
  EXPECT_EQ(big.total_overwritten(), 0u);
}

TEST(TraceSink, CategoryMaskGatesEmit) {
  TraceSink sink;
  sink.set_category_mask(telemetry::category_bit(Category::kQueue));
  EXPECT_TRUE(sink.enabled(Category::kQueue));
  EXPECT_FALSE(sink.enabled(Category::kTcp));
  const ComponentId c = sink.intern_component("c");
  telemetry::emit(&sink, EventType::kQueueEnqueue, c, 1, 100, 100);
  telemetry::emit(&sink, EventType::kTcpRetransmit, c, 2, 0, 1);
  telemetry::emit(nullptr, EventType::kQueueEnqueue, c, 3);  // must not crash
#ifdef CONGA_TELEMETRY
  ASSERT_EQ(sink.total_recorded(), 1u);
  EXPECT_EQ(sink.events(c)[0].type, EventType::kQueueEnqueue);
#else
  EXPECT_EQ(sink.total_recorded(), 0u);  // emit() compiles to nothing
#endif
}

TEST(EventNames, RoundTripThroughParse) {
  for (unsigned i = 0; i < static_cast<unsigned>(EventType::kTypeCount); ++i) {
    const EventType t = static_cast<EventType>(i);
    EventType back = EventType::kTypeCount;
    ASSERT_TRUE(telemetry::parse_event_type(telemetry::event_type_name(t),
                                            back));
    EXPECT_EQ(back, t);
  }
  for (unsigned i = 0; i < static_cast<unsigned>(Category::kCount); ++i) {
    const Category c = static_cast<Category>(i);
    Category back = Category::kCount;
    ASSERT_TRUE(telemetry::parse_category(telemetry::category_name(c), back));
    EXPECT_EQ(back, c);
  }
  EventType t = EventType::kTypeCount;
  EXPECT_FALSE(telemetry::parse_event_type("no_such_event", t));
  Category c = Category::kCount;
  EXPECT_FALSE(telemetry::parse_category("no_such_category", c));
}

// The kCampaign and kSupervisor rows are retired (nothing emits them) but
// stay in the append-only enums, so their wire names must keep parsing.
TEST(EventNames, RetiredRowsKeepTheirNames) {
  EXPECT_EQ(telemetry::category_of(EventType::kCampaignCellHit),
            Category::kCampaign);
  EXPECT_EQ(telemetry::category_of(EventType::kSupervisorSpawn),
            Category::kSupervisor);
  EventType t = EventType::kTypeCount;
  ASSERT_TRUE(telemetry::parse_event_type("campaign_cell_miss", t));
  EXPECT_EQ(t, EventType::kCampaignCellMiss);
  Category c = Category::kCount;
  ASSERT_TRUE(telemetry::parse_category("campaign", c));
  EXPECT_EQ(c, Category::kCampaign);
}

/// Reads a whole FILE* written by an exporter back into a string.
std::string slurp(std::FILE* f) {
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  return out;
}

TEST(Exporters, JsonlSchema) {
  TraceSink sink;
  const ComponentId q = sink.intern_component("down:l1s1p0");
  sink.record(EventType::kQueueEnqueue, q, 1000, 1500, 1500);
  sink.record(EventType::kCounterSample, q, 2000, 41, 41);
  sink.record(EventType::kGaugeSample, q, 3000,
              std::bit_cast<std::uint64_t>(2.5), 0);

  std::FILE* jf = std::tmpfile();
  ASSERT_NE(jf, nullptr);
  telemetry::write_jsonl(sink, jf);
  const std::string jsonl = slurp(jf);
  std::fclose(jf);

  // Meta header first, then one object per event in seq order.
  EXPECT_EQ(jsonl.rfind("{\"meta\":{\"schema\":\"conga-trace-v1\"", 0), 0u);
  EXPECT_NE(jsonl.find("\"components\":[\"down:l1s1p0\"]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"total_recorded\":3"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"t\":1000,\"seq\":1,\"comp\":\"down:l1s1p0\","
                       "\"cat\":\"queue\",\"type\":\"queue_enqueue\","
                       "\"a\":1500,\"b\":1500}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"counter_sample\",\"a\":41,\"b\":41,"
                       "\"value\":41,\"delta\":41}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"gauge_sample\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"value\":2.5}"), std::string::npos);
  // Line count: meta + 3 events.
  std::size_t lines = 0;
  for (char ch : jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, 4u);
}

TEST(PeriodicSampler, CounterDeltasAndGaugeValues) {
  sim::Scheduler sched;
  TraceSink sink;
  std::uint64_t bytes = 0;
  double depth = 0.0;
  sink.probes().add_counter("x/bytes", [&bytes] { return bytes; });
  sink.probes().add_gauge("x/depth", [&depth] { return depth; });
  // Bump the counter by 100 and the gauge by 1.0 every ms, starting at 0.5ms.
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(sim::microseconds(500) + sim::milliseconds(i),
                      [&bytes, &depth] {
                        bytes += 100;
                        depth += 1.0;
                      });
  }
  telemetry::PeriodicSampler sampler(sched, sink, sim::milliseconds(1), 0,
                                     sim::milliseconds(10));
  sched.run();

  ASSERT_EQ(sampler.probe_count(), 2u);
  // Ticks at 0, 1, ..., 10 ms inclusive (same schedule the old QueueSampler
  // used: first at start, then while now + interval <= end).
  ASSERT_EQ(sampler.times().size(), 11u);
  EXPECT_EQ(sampler.times().front(), 0);
  EXPECT_EQ(sampler.times().back(), sim::milliseconds(10));
  // Counter: first sample is the baseline, so 10 deltas of 100 each.
  ASSERT_EQ(sampler.series(0).size(), 10u);
  for (double d : sampler.series(0)) EXPECT_DOUBLE_EQ(d, 100.0);
  // Gauge: 11 instantaneous values 0, 1, ..., 10.
  ASSERT_EQ(sampler.series(1).size(), 11u);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_DOUBLE_EQ(sampler.series(1)[i], static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(sampler.summary("x/depth").max(), 10.0);
#ifdef CONGA_TELEMETRY
  // Probe samples are also recorded as events: (11 counter + 11 gauge).
  EXPECT_EQ(sink.total_recorded(), 22u);
#endif
}

/// Node that drops everything (endpoint for the spread tests' links).
class NullNode : public net::Node {
 public:
  void receive(net::PacketPtr, int) override {}
  std::string name() const override { return "null"; }
};

/// Sends 1000 B on `a` every 10 us for 10 ms, and on `b` on every
/// `b_every`-th of those ticks; returns spread_pct() over the two links'
/// byte counters sampled every 1 ms.
stats::Summary two_link_spread(int b_every) {
  sim::Scheduler sched;
  TraceSink sink;
  NullNode null;
  net::LinkConfig cfg;
  cfg.rate_bps = 10e9;
  net::Link a(sched, "a", cfg), b(sched, "b", cfg);
  a.connect_to(&null, 0);
  b.connect_to(&null, 0);
  sink.probes().add_counter("a/tx_bytes", [&a] { return a.bytes_sent(); });
  sink.probes().add_counter("b/tx_bytes", [&b] { return b.bytes_sent(); });
  telemetry::PeriodicSampler sampler(sched, sink, sim::milliseconds(1), 0,
                                     sim::milliseconds(10));
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(sim::microseconds(10) * i, [&a, &b, i, b_every] {
      auto pa = net::make_packet();
      pa->size_bytes = 1000;
      a.send(std::move(pa));
      if (i % b_every == 0) {
        auto pb = net::make_packet();
        pb->size_bytes = 1000;
        b.send(std::move(pb));
      }
    });
  }
  sched.run();
  return sampler.spread_pct();
}

TEST(PeriodicSampler, EqualLoadGivesLowImbalance) {
  const stats::Summary spread = two_link_spread(1);
  ASSERT_GT(spread.count(), 5u);
  EXPECT_LT(spread.mean(), 1.0);
}

TEST(PeriodicSampler, SkewedLoadGivesHighImbalance) {
  // b gets a third of the traffic: (max-min)/mean with loads 1 and 1/3 is
  // (1 - 1/3) / (2/3) = 100%.
  const stats::Summary spread = two_link_spread(3);
  ASSERT_GT(spread.count(), 5u);
  EXPECT_NEAR(spread.mean(), 100.0, 15.0);
}

TEST(PeriodicSampler, SpreadSkipsIdleIntervals) {
  sim::Scheduler sched;
  TraceSink sink;
  std::uint64_t x = 0, y = 0;
  sink.probes().add_counter("x/bytes", [&x] { return x; });
  sink.probes().add_counter("y/bytes", [&y] { return y; });
  // Intervals (1, 2] and (3, 4] carry 300 on x and 100 on y; (2, 3] is idle.
  for (const int us : {1500, 3500}) {
    sched.schedule_at(sim::microseconds(us), [&x, &y] {
      x += 300;
      y += 100;
    });
  }
  telemetry::PeriodicSampler sampler(sched, sink, sim::milliseconds(1),
                                     sim::milliseconds(1),
                                     sim::milliseconds(4));
  sched.run();
  ASSERT_EQ(sampler.series(0).size(), 3u);
  // Two samples of (300 - 100) / 200 = 100%; the idle interval adds none.
  const stats::Summary spread = sampler.spread_pct();
  ASSERT_EQ(spread.count(), 2u);
  EXPECT_DOUBLE_EQ(spread.mean(), 100.0);
}

#ifdef CONGA_TELEMETRY

TEST(FabricTelemetry, RuntimeFailureEmitsLinkEvents) {
  sim::Scheduler sched;
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 2;
  net::Fabric fabric(sched, topo, 1);
  fabric.install_lb(lb::ecmp());
  TraceSink sink;
  fabric.attach_telemetry(&sink);

  sched.schedule_at(sim::milliseconds(1), [&fabric] {
    fabric.fail_fabric_link(1, 1, 0, sim::milliseconds(1));
  });
  sched.schedule_at(sim::milliseconds(5), [&fabric] {
    fabric.restore_fabric_link(1, 1, 0, sim::milliseconds(1));
  });
  sched.run();

  const ComponentId up = sink.find_component("up:l1s1p0");
  ASSERT_NE(up, telemetry::kInvalidComponent);
  std::vector<EventType> types;
  for (const Event& e : sink.events(up)) types.push_back(e.type);
  const std::vector<EventType> want = {
      EventType::kLinkDown,      // dataplane dies at 1ms
      EventType::kLinkWithdrawn, // control plane notices at 2ms
      EventType::kLinkUp,        // dataplane back at 5ms
      EventType::kLinkRestored,  // control plane reinstates at 6ms
  };
  EXPECT_EQ(types, want);
  const std::vector<Event> ev = sink.events(up);
  EXPECT_EQ(ev[1].t, sim::milliseconds(2));
  EXPECT_EQ(ev[1].a, 1u);  // spine
  EXPECT_EQ(ev[1].b, 1u);  // leaf
}

TEST(FabricTelemetry, WorkloadRunCoversEveryLayer) {
  sim::Scheduler sched;
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  net::Fabric fabric(sched, topo, 1);
  fabric.install_lb(core::conga());
  TraceSink sink;
  fabric.attach_telemetry(&sink);

  workload::TrafficGenConfig gc;
  gc.load = 0.4;
  gc.stop = sim::milliseconds(5);
  workload::TrafficGenerator gen(fabric,
                                 tcp::make_tcp_flow_factory({}),
                                 workload::enterprise(), gc);
  gen.start();
  workload::run_with_drain(sched, gen, gc.stop, sim::seconds(1.0));

  // Every instrumented layer shows up in one short run.
  std::uint32_t seen = 0;
  for (ComponentId c = 0; c < sink.component_count(); ++c) {
    for (const Event& e : sink.events(c)) {
      seen |= telemetry::category_bit(telemetry::category_of(e.type));
    }
  }
  EXPECT_TRUE(seen & telemetry::category_bit(Category::kQueue));
  EXPECT_TRUE(seen & telemetry::category_bit(Category::kDre));
  EXPECT_TRUE(seen & telemetry::category_bit(Category::kFlowlet));
  EXPECT_TRUE(seen & telemetry::category_bit(Category::kCongaTable));
  EXPECT_TRUE(seen & telemetry::category_bit(Category::kFlow));

  // all_events() is the seq-ordered merge of every ring.
  const std::vector<Event> all = sink.all_events();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].seq, all[i].seq);
  }
}

#endif  // CONGA_TELEMETRY

workload::ExperimentConfig small_scenario() {
  workload::ExperimentConfig s;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 4;
  s.lb = core::conga();
  s.dist = workload::enterprise();
  s.load = 0.5;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(5);
  return s;
}

TEST(TelemetryDeterminism, SinkIsPassive) {
  // Attaching a fully enabled sink must not perturb the packet schedule:
  // FCT digest, event-trace digest, and event count all stay identical.
  const debug::RunDigests a = debug::run_digest_trial(small_scenario(), false);
  const debug::RunDigests b = debug::run_digest_trial(small_scenario(), true);
  EXPECT_EQ(a.fct, b.fct);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.telemetry, 0u);  // no sink leaves the field zero
}

TEST(TelemetryDeterminism, SameSeedsSameTraceDigest) {
  const workload::ExperimentConfig s = small_scenario();
  const debug::RunDigests a = debug::run_digest_trial(s);
  const debug::RunDigests b = debug::run_digest_trial(s);
  EXPECT_EQ(a, b);  // includes the telemetry digest field
#ifdef CONGA_TELEMETRY
  EXPECT_NE(a.telemetry, 0u);
#endif
}

TEST(TelemetryDeterminism, TraceDigestIdenticalAcrossJobsCounts) {
  // The parallel experiment runner must not perturb recorded traces: the
  // per-cell telemetry digest is byte-identical for jobs=1 and jobs=4.
  std::vector<workload::ExperimentConfig> cells;
  for (const double load : {0.3, 0.6}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      workload::ExperimentConfig s = small_scenario();
      s.load = load;
      s.fabric_seed = seed;
      s.traffic_seed = seed * 31 + 7;
      cells.push_back(s);
    }
  }
  auto run_cell = [&cells](std::size_t i) {
    return debug::run_digest_trial(cells[i]);
  };
  const std::vector<debug::RunDigests> seq =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 1, run_cell);
  const std::vector<debug::RunDigests> par =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 4, run_cell);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].telemetry, par[i].telemetry) << "cell " << i;
    EXPECT_EQ(seq[i], par[i]) << "cell " << i;
  }
  // Distinct cells must not collide (the digest actually varies with input).
#ifdef CONGA_TELEMETRY
  EXPECT_NE(seq[0].telemetry, seq[1].telemetry);
#endif
}

}  // namespace
}  // namespace conga
