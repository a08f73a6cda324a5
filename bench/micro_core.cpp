// Microbenchmarks of CONGA's per-packet primitives (the operations the §4
// ASIC implements in ~2.4M gates) and the simulator's own hot paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/conga_lb.hpp"
#include "core/congestion_tables.hpp"
#include "core/dre.hpp"
#include "core/flowlet_table.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

using namespace conga;

namespace {

void BM_DreAddAndQuantize(benchmark::State& state) {
  core::Dre dre(core::DreConfig{}, 40e9);
  sim::TimeNs t = 0;
  for (auto _ : state) {
    dre.add(1500, t);
    benchmark::DoNotOptimize(dre.quantized(t));
    t += 300;
  }
}
BENCHMARK(BM_DreAddAndQuantize);

void BM_FlowletLookupHit(benchmark::State& state) {
  core::FlowletTable table(core::FlowletTableConfig{});
  net::FlowKey key{1, 2, 3, 4};
  table.install(key, 5, 0);
  sim::TimeNs t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key, t));
    ++t;  // refreshes liveness; stays a hit
  }
}
BENCHMARK(BM_FlowletLookupHit);

void BM_FlowletInstall(benchmark::State& state) {
  core::FlowletTable table(core::FlowletTableConfig{});
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FlowKey key{1, 2, ++port, 4};
    table.install(key, port % 4, 0);
  }
}
BENCHMARK(BM_FlowletInstall);

void BM_CongestionTableUpdate(benchmark::State& state) {
  core::CongestionTableConfig cfg;
  cfg.num_leaves = 8;
  cfg.num_uplinks = 12;
  core::CongestionFromLeafTable table(cfg);
  int i = 0;
  for (auto _ : state) {
    table.update(i % 8, i % 12, static_cast<std::uint8_t>(i % 8), i);
    ++i;
  }
}
BENCHMARK(BM_CongestionTableUpdate);

// One piggybacked feedback pick per packet; args are (leaves, uplinks). The
// 24 x 16 case is a large fabric at the 4-bit LBTag maximum.
void BM_FeedbackPick(benchmark::State& state) {
  const auto leaves = static_cast<int>(state.range(0));
  const auto uplinks = static_cast<int>(state.range(1));
  core::CongestionTableConfig cfg;
  cfg.num_leaves = leaves;
  cfg.num_uplinks = uplinks;
  core::CongestionFromLeafTable table(cfg);
  for (int l = 0; l < leaves; ++l) {
    for (int u = 0; u < uplinks; ++u) {
      table.update(l, u, static_cast<std::uint8_t>(u), 0);
    }
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pick_feedback(i % leaves, i));
    ++i;
  }
}
BENCHMARK(BM_FeedbackPick)->Args({8, 12})->Args({24, 16});

struct SelectFixture {
  sim::Scheduler sched;
  net::Fabric fabric;
  SelectFixture() : fabric(sched, net::testbed_baseline(), 1) {}
};

void BM_EcmpSelect(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(lb::ecmp());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  std::uint16_t p = 0;
  for (auto _ : state) {
    pkt.flow.src_port = ++p;
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, 0));
  }
}
BENCHMARK(BM_EcmpSelect);

void BM_CongaSelectNewFlowlet(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(core::conga());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  std::uint16_t p = 0;
  for (auto _ : state) {
    pkt.flow.src_port = ++p;  // new 5-tuple (almost) every call
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, 0));
  }
}
BENCHMARK(BM_CongaSelectNewFlowlet);

void BM_CongaSelectCached(benchmark::State& state) {
  SelectFixture fx;
  fx.fabric.install_lb(core::conga());
  auto* balancer = fx.fabric.leaf(0).load_balancer();
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 40, 1, 2};
  sim::TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancer->select_uplink(pkt, 1, t));
    t += 100;  // well within the flowlet gap
  }
}
BENCHMARK(BM_CongaSelectCached);

void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  sim::Scheduler sched;
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
}
BENCHMARK(BM_SchedulerScheduleDispatch);

// Typed twin of BM_SchedulerScheduleDispatch: the same one-event cycle
// posted to a target, as link arrivals and drains are, with no callback to
// store, relocate, call and destroy. The difference is the per-hop saving.
void BM_SchedulerTypedDispatch(benchmark::State& state) {
  struct Count final : sim::Scheduler::Target {
    void on_event(std::uint32_t tag) override { n += tag; }
    std::uint64_t n = 0;
  } target;
  sim::Scheduler sched;
  const sim::Scheduler::TargetId id = sched.add_target(&target);
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.post_at(++t, id, 1);
    sched.run_until(t);
  }
  benchmark::DoNotOptimize(target.n);
}
BENCHMARK(BM_SchedulerTypedDispatch);

// The trace hook must cost one predictable branch when unset; this is the
// hook-enabled companion to BM_SchedulerScheduleDispatch, so the delta is
// the whole observability overhead (satellite: zero-cost when disabled).
void BM_SchedulerScheduleDispatchTraced(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  sched.set_trace_hook(
      [&sink](sim::TimeNs t, sim::EventId id) { sink ^= t ^ id; });
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SchedulerScheduleDispatchTraced);

// TCP-timer re-arm pattern: schedule then cancel without dispatching. Each
// cycle is one callback-map insert and erase plus one queue node that goes
// stale; every ~64 cancels, compaction walks the occupied slots and drops
// them.
void BM_ScheduleCancelChurn(benchmark::State& state) {
  sim::Scheduler sched;
  sim::TimeNs t = 0;
  for (auto _ : state) {
    const sim::EventId id = sched.schedule_at(++t + 1000, [] {});
    sched.cancel(id);
    benchmark::DoNotOptimize(id);
  }
  sched.run();
}
BENCHMARK(BM_ScheduleCancelChurn);

// Dispatch beside a standing backlog of 1000 events 1 s out. They wait in
// the far heap, untouched, so each cycle costs what it would alone: the
// backlog must not be rescanned on every dispatch.
void BM_SchedulerDispatchDepth1k(benchmark::State& state) {
  sim::Scheduler sched;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(1'000'000'000 + i, [] {});
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    sched.schedule_at(++t, [] {});
    sched.run_until(t);
  }
}
BENCHMARK(BM_SchedulerDispatchDepth1k);

// The TCP timer pattern beside a packet stream: 500 parked 1 ms timers, one
// re-armed (cancel + reschedule) per iteration, while ~50 near events (5 us
// out, one dispatched per 100 ns step) churn. No timer ever fires. The
// parked timers wait in the far heap past the calendar's window while the
// near events are filed straight into its slots, and the cancelled nodes
// are compacted away instead of piling up.
void BM_SchedulerDispatchWithParkedTimers(benchmark::State& state) {
  sim::Scheduler sched;
  std::vector<sim::EventId> timers(500);
  for (auto& id : timers) {
    id = sched.schedule_after(sim::milliseconds(1), [] {});
  }
  for (sim::TimeNs d = 100; d <= sim::microseconds(5); d += 100) {
    sched.schedule_after(d, [] {});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    sched.cancel(timers[next]);
    timers[next] = sched.schedule_after(sim::milliseconds(1), [] {});
    next = next + 1 == timers.size() ? 0 : next + 1;
    sched.run_until(sched.now() + 100);
    sched.schedule_after(sim::microseconds(5), [] {});
  }
  state.counters["pending"] = static_cast<double>(sched.pending());
}
BENCHMARK(BM_SchedulerDispatchWithParkedTimers);

// The pending set of a fabric: 256 links whose hop events each re-post 1.2
// to 2.2 us out when they fire (a frame's serialization at 10G plus 1 us of
// propagation), beside 500 parked TCP timers, spread over 1 ms, that each
// re-arm 1 ms out when they fire. Every event stops the run, so one
// iteration dispatches exactly one event.
void BM_SchedulerHopPattern(benchmark::State& state) {
  struct Link final : sim::Scheduler::Target {
    void on_event(std::uint32_t tag) override {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto jitter = static_cast<sim::TimeNs>((rng >> 33) % 1001);
      sched->post_at(sched->now() + 1200 + jitter, id, tag);
      sched->stop();
    }
    sim::Scheduler* sched = nullptr;
    sim::Scheduler::TargetId id = 0;
    std::uint64_t rng = 0;
  };
  struct Timers {
    void arm(sim::TimeNs at) {
      sched.schedule_at(at, [this] {
        arm(sched.now() + sim::milliseconds(1));
        sched.stop();
      });
    }
    sim::Scheduler& sched;
  };
  sim::Scheduler sched;
  std::vector<Link> links(256);
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].sched = &sched;
    links[i].id = sched.add_target(&links[i]);
    links[i].rng = i + 1;
    sched.post_at(static_cast<sim::TimeNs>(1200 + i * 4), links[i].id, 0);
  }
  Timers timers{sched};
  for (int i = 0; i < 500; ++i) {
    timers.arm(sim::milliseconds(1) + sim::microseconds(2) * i);
  }
  for (auto _ : state) sched.run();
  state.counters["pending"] = static_cast<double>(sched.pending());
}
BENCHMARK(BM_SchedulerHopPattern);

// A NIC backlog 10k packets deep (an incast burst on a host port): each
// iteration enqueues 10k packets, then dequeues them all. The dequeues walk
// the chain of packets the queue links through Packet::queue_next.
void BM_QueueDeepBacklog(benchmark::State& state) {
  constexpr int kBacklog = 10'000;
  net::DropTailQueue q(std::uint64_t{kBacklog} * 1500);
  sim::TimeNs t = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBacklog; ++i) {
      net::PacketPtr p = net::make_packet();
      p->size_bytes = 1500;
      q.enqueue(std::move(p), ++t);
    }
    while (net::PacketPtr p = q.dequeue(++t)) benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
}
BENCHMARK(BM_QueueDeepBacklog);

// Steady-state packet cost: each iteration acquires from and releases to
// the thread-local pool — no allocator traffic after the first chunk.
void BM_PacketAlloc(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_packet());
  }
  state.counters["pool_chunk_allocs"] = static_cast<double>(
      net::packet_pool_stats().chunk_allocs);
}
BENCHMARK(BM_PacketAlloc);

// Pool behaviour with a realistic number of packets in flight.
void BM_PacketAllocInFlight(benchmark::State& state) {
  std::vector<net::PacketPtr> in_flight;
  in_flight.reserve(64);
  std::size_t next = 0;
  for (int i = 0; i < 64; ++i) in_flight.push_back(net::make_packet());
  for (auto _ : state) {
    in_flight[next] = net::make_packet();  // releases the old, acquires new
    next = (next + 1) % in_flight.size();
  }
}
BENCHMARK(BM_PacketAllocInFlight);

void BM_EndToEndPacketForwarding(benchmark::State& state) {
  // Whole-fabric cost of one inter-leaf packet (encap, CONGA decision,
  // 4 link hops, feedback harvest, decap, delivery).
  sim::Scheduler sched;
  net::Fabric fabric(sched, net::testbed_baseline(), 1);
  fabric.install_lb(core::conga());
  std::uint16_t p = 0;
  for (auto _ : state) {
    net::PacketPtr pkt = net::make_packet();
    pkt->flow = net::FlowKey{0, 40, ++p, 7};
    pkt->size_bytes = 1500;
    fabric.host(0).send(std::move(pkt));
    sched.run();
  }
}
BENCHMARK(BM_EndToEndPacketForwarding);

}  // namespace

BENCHMARK_MAIN();
