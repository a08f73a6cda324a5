// Tests for the drop-tail queue and link transmission model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "tcp/flow.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::net {
namespace {

PacketPtr packet_of(std::uint32_t bytes) {
  PacketPtr p = make_packet();
  p->size_bytes = bytes;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(1 << 20);
  auto a = packet_of(100);
  auto b = packet_of(200);
  const auto ida = a->id;
  const auto idb = b->id;
  q.enqueue(std::move(a), 0);
  q.enqueue(std::move(b), 0);
  EXPECT_EQ(q.dequeue(1)->id, ida);
  EXPECT_EQ(q.dequeue(2)->id, idb);
  EXPECT_EQ(q.dequeue(3), nullptr);
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q(1000);
  EXPECT_TRUE(q.enqueue(packet_of(400), 0));
  EXPECT_TRUE(q.enqueue(packet_of(600), 0));
  EXPECT_EQ(q.bytes(), 1000u);
  EXPECT_EQ(q.packets(), 2u);
  q.dequeue(1);
  EXPECT_EQ(q.bytes(), 600u);
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(1000);
  EXPECT_TRUE(q.enqueue(packet_of(900), 0));
  EXPECT_FALSE(q.enqueue(packet_of(200), 0));  // would exceed capacity
  EXPECT_EQ(q.stats().dropped_pkts, 1u);
  EXPECT_EQ(q.stats().dropped_bytes, 200u);
  // A packet that exactly fits still goes in.
  EXPECT_TRUE(q.enqueue(packet_of(100), 0));
}

TEST(DropTailQueue, TracksMaxOccupancy) {
  DropTailQueue q(10000);
  q.enqueue(packet_of(4000), 0);
  q.enqueue(packet_of(4000), 0);
  q.dequeue(1);
  q.dequeue(2);
  EXPECT_EQ(q.stats().max_bytes_seen, 8000u);
}

TEST(DropTailQueue, TimeAverageIntegratesOccupancy) {
  DropTailQueue q(1 << 20);
  q.enqueue(packet_of(1000), 0);   // 1000 B over [0, 100)
  q.dequeue(100);                  // 0 B over [100, 200)
  EXPECT_NEAR(q.time_avg_bytes(200), 500.0, 1e-6);
}

/// Captures delivered packets with their arrival times.
class SinkNode : public Node {
 public:
  void receive(PacketPtr pkt, int in_port) override {
    arrivals.emplace_back(pkt->id, in_port);
    sizes.push_back(pkt->size_bytes);
  }
  std::string name() const override { return "sink"; }
  std::vector<std::pair<std::uint64_t, int>> arrivals;
  std::vector<std::uint32_t> sizes;
};

LinkConfig test_link_cfg() {
  LinkConfig cfg;
  cfg.rate_bps = 1e9;  // 1 Gbps: 8 ns per byte, easy math
  cfg.propagation_delay = sim::microseconds(2);
  cfg.queue_capacity_bytes = 1 << 20;
  return cfg;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Scheduler sched;
  SinkNode sink;
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 7);
  link.send(packet_of(1250));  // 1250 B * 8 / 1e9 = 10 us serialization
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second, 7);
  EXPECT_EQ(sched.now(), sim::microseconds(12));  // 10 us ser + 2 us prop
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  sim::Scheduler sched;
  SinkNode sink;
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 0);
  link.send(packet_of(1250));
  link.send(packet_of(1250));
  std::vector<sim::TimeNs> times;
  sched.schedule_at(sim::microseconds(12), [&] { times.push_back(sched.now()); });
  sched.run();
  // Second packet: starts at 10us, arrives at 22us.
  EXPECT_EQ(sched.now(), sim::microseconds(22));
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Link, PreservesOrder) {
  sim::Scheduler sched;
  SinkNode sink;
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 0);
  std::vector<std::uint64_t> sent_ids;
  for (int i = 0; i < 20; ++i) {
    auto p = packet_of(500);
    sent_ids.push_back(p->id);
    link.send(std::move(p));
  }
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sink.arrivals[static_cast<size_t>(i)].first,
              sent_ids[static_cast<size_t>(i)]);
  }
}

TEST(Link, ThroughputMatchesRate) {
  sim::Scheduler sched;
  SinkNode sink;
  LinkConfig cfg = test_link_cfg();
  cfg.queue_capacity_bytes = 4 << 20;  // hold the whole 1.25 MB burst
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  const int n = 1000;
  for (int i = 0; i < n; ++i) link.send(packet_of(1250));
  sched.run();
  const double secs = sim::to_seconds(sched.now() - cfg.propagation_delay);
  const double bps = n * 1250 * 8.0 / secs;
  EXPECT_NEAR(bps / cfg.rate_bps, 1.0, 0.01);
}

TEST(Link, DropsOverflowInsteadOfQueueing) {
  sim::Scheduler sched;
  SinkNode sink;
  LinkConfig cfg = test_link_cfg();
  cfg.queue_capacity_bytes = 2500;  // room for 2 x 1250B
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  // First packet starts transmitting immediately (not queued), next two fill
  // the queue, remaining two drop.
  for (int i = 0; i < 5; ++i) link.send(packet_of(1250));
  sched.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(link.queue().stats().dropped_pkts, 2u);
}

TEST(Link, CeMarkingOnFabricLinks) {
  sim::Scheduler sched;
  SinkNode sink;
  LinkConfig cfg = test_link_cfg();
  cfg.marks_ce = true;
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);

  // Prime the DRE to a high utilization.
  link.dre().add(static_cast<std::uint32_t>(1e9 / 8 * 160e-6), 0);

  auto p = packet_of(1000);
  p->overlay.valid = true;
  p->overlay.ce = 1;
  link.send(std::move(p));

  bool checked = false;
  SinkNode* s = &sink;
  sched.schedule_at(sim::milliseconds(1), [&checked, s] {
    checked = !s->arrivals.empty();
  });
  sched.run();
  EXPECT_TRUE(checked);
  // CE must have been raised to the DRE's quantized level (> 1).
  // We can't inspect the delivered packet via SinkNode easily, so re-check
  // via a second packet with a fresh sink below.
}

/// Sink that records the CE values of delivered packets.
class CeSink : public Node {
 public:
  void receive(PacketPtr pkt, int) override { ce.push_back(pkt->overlay.ce); }
  std::string name() const override { return "ce-sink"; }
  std::vector<std::uint8_t> ce;
};

TEST(Link, CeIsMaxOfPacketAndLink) {
  sim::Scheduler sched;
  CeSink sink;
  LinkConfig cfg = test_link_cfg();
  cfg.marks_ce = true;
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  link.dre().add(static_cast<std::uint32_t>(1e9 / 8 * 160e-6 / 2), 0);  // ~0.5

  auto low = packet_of(100);
  low->overlay.valid = true;
  low->overlay.ce = 0;
  auto high = packet_of(100);
  high->overlay.valid = true;
  high->overlay.ce = 7;
  link.send(std::move(low));
  link.send(std::move(high));
  sched.run();
  ASSERT_EQ(sink.ce.size(), 2u);
  EXPECT_GE(sink.ce[0], 3);  // raised to link metric
  EXPECT_EQ(sink.ce[1], 7);  // kept: packet already saw worse congestion
}

TEST(Link, CeSumAggregationAddsAndClamps) {
  sim::Scheduler sched;
  CeSink sink;
  LinkConfig cfg = test_link_cfg();
  cfg.marks_ce = true;
  cfg.ce_sum = true;
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  link.dre().add(static_cast<std::uint32_t>(1e9 / 8 * 160e-6 / 2), 0);  // ~0.5

  auto low = packet_of(100);
  low->overlay.valid = true;
  low->overlay.ce = 2;
  auto high = packet_of(100);
  high->overlay.valid = true;
  high->overlay.ce = 6;
  link.send(std::move(low));
  link.send(std::move(high));
  sched.run();
  ASSERT_EQ(sink.ce.size(), 2u);
  EXPECT_GE(sink.ce[0], 5);  // 2 + ~3..4
  EXPECT_EQ(sink.ce[1], 7);  // clamped at the Q-bit maximum
}

TEST(Link, EdgeLinksDoNotMarkCe) {
  sim::Scheduler sched;
  CeSink sink;
  LinkConfig cfg = test_link_cfg();
  cfg.marks_ce = false;
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  link.dre().add(1 << 24, 0);  // very hot
  auto p = packet_of(100);
  p->overlay.valid = true;
  p->overlay.ce = 0;
  link.send(std::move(p));
  sched.run();
  ASSERT_EQ(sink.ce.size(), 1u);
  EXPECT_EQ(sink.ce[0], 0);
}

TEST(DropTailQueue, EcnMarksAboveThreshold) {
  DropTailQueue q(1 << 20, /*ecn_threshold_bytes=*/2000);
  auto a = packet_of(1500);
  net::Packet* pa = a.get();
  q.enqueue(std::move(a), 0);
  EXPECT_FALSE(pa->ecn_ce) << "below threshold";
  auto b = packet_of(1500);
  net::Packet* pb = b.get();
  q.enqueue(std::move(b), 0);
  EXPECT_FALSE(pb->ecn_ce) << "occupancy 1500 <= 2000 at enqueue";
  auto c = packet_of(1500);
  net::Packet* pc = c.get();
  q.enqueue(std::move(c), 0);
  EXPECT_TRUE(pc->ecn_ce) << "occupancy 3000 > 2000 at enqueue";
  EXPECT_EQ(q.stats().ecn_marked_pkts, 1u);
}

TEST(DropTailQueue, EcnDisabledByDefault) {
  DropTailQueue q(1 << 20);
  for (int i = 0; i < 100; ++i) q.enqueue(packet_of(1500), 0);
  EXPECT_EQ(q.stats().ecn_marked_pkts, 0u);
}

// The queue links resident packets through Packet::queue_next: random
// interleavings of enqueue, tail drop and dequeue must come out in the
// order a plain FIFO of the admitted packets gives, with every packet
// unlinked on its way out.
TEST(DropTailQueue, FifoOrderAcrossDropsAndDequeues) {
  DropTailQueue q(10'000);
  std::deque<std::uint64_t> model;  // ids of the admitted packets, in order
  int empty_again = 0;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int step = 0; step < 20'000; ++step) {
    // Alternate fill and drain phases, so the queue both overflows and
    // empties again many times.
    const bool filling = (step / 200) % 2 == 0;
    if (next() % 4 < (filling ? 3U : 1U)) {
      auto p = packet_of(static_cast<std::uint32_t>(100 + next() % 1400));
      const std::uint64_t id = p->id;
      const bool fits = q.bytes() + p->size_bytes <= q.capacity_bytes();
      ASSERT_EQ(q.enqueue(std::move(p), step), fits);
      if (fits) model.push_back(id);
    } else {
      PacketPtr p = q.dequeue(step);
      if (model.empty()) {
        ASSERT_EQ(p, nullptr);
        continue;
      }
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(p->id, model.front());
      ASSERT_EQ(p->queue_next, nullptr);
      model.pop_front();
      if (model.empty()) ++empty_again;
    }
    ASSERT_EQ(q.packets(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }
  EXPECT_GT(q.stats().dropped_pkts, 0u);
  EXPECT_GT(empty_again, 10);
}

// A tail-dropped packet goes straight back to the pool: it is never linked
// in, so the resident chain still ends at the last admitted packet.
TEST(DropTailQueue, DroppedPacketIsNeverLinked) {
  DropTailQueue q(1000);
  ASSERT_TRUE(q.enqueue(packet_of(600), 0));
  const std::uint64_t released = packet_pool_stats().released;
  auto big = packet_of(500);
  const Packet* const dropped = big.get();
  ASSERT_FALSE(q.enqueue(std::move(big), 0));
  EXPECT_EQ(packet_pool_stats().released, released + 1);
  // The pool hands the dropped packet's storage out again at once.
  auto reused = packet_of(400);
  EXPECT_EQ(reused.get(), dropped);
  ASSERT_TRUE(q.enqueue(std::move(reused), 1));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.dequeue(2)->size_bytes, 600u);
  EXPECT_EQ(q.dequeue(3)->size_bytes, 400u);
  EXPECT_EQ(q.dequeue(4), nullptr);
}

TEST(DropTailQueue, DestructionReturnsResidentPacketsToThePool) {
  const PacketPoolStats before = packet_pool_stats();
  {
    DropTailQueue q(1 << 20);
    for (int i = 0; i < 300; ++i) q.enqueue(packet_of(1500), 0);
    q.dequeue(1);
    ASSERT_EQ(q.packets(), 299u);
  }
  const PacketPoolStats after = packet_pool_stats();
  EXPECT_EQ(after.acquired - before.acquired, 300u);
  EXPECT_EQ(after.released - before.released, 300u);
}

TEST(Link, DownLinkBlackholes) {
  sim::Scheduler sched;
  SinkNode sink;
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 0);
  link.set_up(false);
  link.send(packet_of(100));
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(SharedBufferPool, DynamicLimitShrinksWithUse) {
  SharedBufferPool pool(1000, 1.0);
  EXPECT_EQ(pool.dynamic_limit(), 1000u);
  pool.reserve(400);
  EXPECT_EQ(pool.dynamic_limit(), 600u);
  pool.release(400);
  EXPECT_EQ(pool.dynamic_limit(), 1000u);
}

TEST(SharedBufferPool, AlphaScalesHeadroom) {
  SharedBufferPool pool(1000, 2.0);
  pool.reserve(600);
  EXPECT_EQ(pool.dynamic_limit(), 800u);  // 2 * 400 free
}

TEST(SharedBufferPool, OneHotQueueTakesMostOfThePool) {
  // With alpha=1 a single queue converges to total/2; with alpha=2, to 2/3.
  SharedBufferPool pool(900, 2.0);
  DropTailQueue q(1 << 30, 0, &pool);
  std::uint64_t accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    auto p = packet_of(100);
    if (!q.enqueue(std::move(p), 0)) break;
    accepted += 100;
  }
  EXPECT_NEAR(static_cast<double>(accepted), 600.0, 100.0);
}

TEST(SharedBufferPool, TwoQueuesSqueezeEachOther) {
  SharedBufferPool pool(1200, 1.0);
  DropTailQueue a(1 << 30, 0, &pool);
  DropTailQueue b(1 << 30, 0, &pool);
  // Alternate enqueues until both saturate.
  for (int i = 0; i < 200; ++i) {
    a.enqueue(packet_of(100), 0);
    b.enqueue(packet_of(100), 0);
  }
  // Equilibrium: each holds ~total/3 with alpha=1 (limit = free = T - 2q).
  EXPECT_NEAR(static_cast<double>(a.bytes()), 400.0, 120.0);
  EXPECT_NEAR(static_cast<double>(b.bytes()), 400.0, 120.0);
  // Dequeuing from one frees headroom for the other.
  const auto before = pool.dynamic_limit();
  for (int i = 0; i < 3; ++i) a.dequeue(1);
  EXPECT_GT(pool.dynamic_limit(), before);
}

TEST(SharedBufferPool, StaticCapStillApplies) {
  SharedBufferPool pool(1 << 20, 8.0);
  DropTailQueue q(500, 0, &pool);  // hard per-port cap dominates
  EXPECT_TRUE(q.enqueue(packet_of(400), 0));
  EXPECT_FALSE(q.enqueue(packet_of(400), 0));
}

/// Records each delivered packet's arrival time and id.
class TimedSink : public Node {
 public:
  explicit TimedSink(const sim::Scheduler& sched) : sched_(sched) {}
  void receive(PacketPtr pkt, int) override {
    times.push_back(sched_.now());
    ids.push_back(pkt->id);
  }
  std::string name() const override { return "timed-sink"; }
  std::vector<sim::TimeNs> times;
  std::vector<std::uint64_t> ids;

 private:
  const sim::Scheduler& sched_;
};

TEST(Link, IdlePacketCostsOneEvent) {
  // The wire-free instant of a packet with nothing queued behind it is only
  // a ticket: each isolated packet dispatches its far-end arrival and
  // nothing else.
  sim::Scheduler sched;
  TimedSink sink(sched);
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 0);
  const int n = 16;
  for (int i = 0; i < n; ++i) {
    link.send(packet_of(1250));
    sched.run();
  }
  EXPECT_EQ(sched.events_dispatched(), static_cast<std::uint64_t>(n));
  ASSERT_EQ(sink.times.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(sink.times[static_cast<std::size_t>(i)],
              sim::microseconds(12) * (i + 1));
  }
}

TEST(Link, BurstSerializesBackToBackThroughDrainEvents) {
  sim::Scheduler sched;
  TimedSink sink(sched);
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&sink, 0);
  for (int i = 0; i < 4; ++i) link.send(packet_of(1250));
  EXPECT_EQ(link.queue().packets(), 3u) << "first packet is on the wire";
  EXPECT_EQ(sched.pending(), 2u) << "its arrival plus one drain event";
  sched.run();
  EXPECT_EQ(sink.times, (std::vector<sim::TimeNs>{
                            sim::microseconds(12), sim::microseconds(22),
                            sim::microseconds(32), sim::microseconds(42)}));
  // 4 arrivals + 3 drains (one per packet that waited for the wire).
  EXPECT_EQ(sched.events_dispatched(), 7u);
  EXPECT_EQ(link.queue().stats().dequeued_pkts, 4u);
  EXPECT_EQ(link.queue().stats().max_bytes_seen, 3u * 1250u);
}

/// Sends a second packet from an event at exactly the instant the first
/// packet's wire-free ticket falls due, ordered before or after the ticket.
/// Returns what the sending event saw right after its send(), what a later
/// same-instant observer saw, the link's delivery times and its telemetry.
struct AtBusyUntil {
  std::size_t queued_at_send = 0;
  std::uint64_t sent_at_observer = 0;
  std::vector<sim::TimeNs> arrivals;
  QueueStats stats;
  std::uint64_t tele_digest = 0;
  std::vector<std::pair<telemetry::EventType, sim::TimeNs>> tele;
};

AtBusyUntil send_at_busy_until(bool before_ticket) {
  sim::Scheduler sched;
  telemetry::TraceSink sink;
  TimedSink far(sched);
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&far, 0);
  link.attach_telemetry(&sink);
  AtBusyUntil out;
  const sim::TimeNs due = sim::microseconds(10);  // 1250 B at 1 Gbps
  auto second = [&] {
    link.send(packet_of(1250));
    out.queued_at_send = link.queue().packets();
  };
  if (before_ticket) sched.schedule_at(due, second);
  link.send(packet_of(1250));  // takes the wire-free ticket at `due`
  if (!before_ticket) sched.schedule_at(due, second);
  sched.schedule_at(due, [&] { out.sent_at_observer = link.packets_sent(); });
  sched.run();
  out.arrivals = far.times;
  out.stats = link.queue().stats();
  out.tele_digest = sink.digest();
  for (const auto& e : sink.all_events()) out.tele.emplace_back(e.type, e.t);
  return out;
}

TEST(Link, SendExactlyAtBusyUntilMatchesWireFreeOrdering) {
  const AtBusyUntil before = send_at_busy_until(true);
  const AtBusyUntil after = send_at_busy_until(false);
  // Before the ticket the wire is still busy: the packet waits in the queue
  // and the drain starts it at the ticket's position, ahead of the observer.
  EXPECT_EQ(before.queued_at_send, 1u);
  EXPECT_EQ(after.queued_at_send, 0u) << "past the ticket: starts at once";
  EXPECT_EQ(before.sent_at_observer, 2u);
  EXPECT_EQ(after.sent_at_observer, 2u);
  for (const AtBusyUntil* r : {&before, &after}) {
    EXPECT_EQ(r->arrivals, (std::vector<sim::TimeNs>{sim::microseconds(12),
                                                     sim::microseconds(22)}));
    EXPECT_EQ(r->stats.enqueued_pkts, 2u);
    EXPECT_EQ(r->stats.dequeued_pkts, 2u);
    EXPECT_EQ(r->stats.max_bytes_seen, 1250u);
    EXPECT_EQ(r->stats.dropped_pkts, 0u);
  }
#ifdef CONGA_TELEMETRY
  using telemetry::EventType;
  const std::vector<std::pair<EventType, sim::TimeNs>> expected = {
      {EventType::kQueueEnqueue, 0},
      {EventType::kQueueDequeue, 0},
      {EventType::kDreUpdate, 0},
      {EventType::kQueueEnqueue, sim::microseconds(10)},
      {EventType::kQueueDequeue, sim::microseconds(10)},
      {EventType::kDreUpdate, sim::microseconds(10)}};
  EXPECT_EQ(before.tele, expected);
  EXPECT_EQ(after.tele, expected);
  EXPECT_EQ(before.tele_digest, after.tele_digest);
#endif
}

// A link keeps the packets it has transmitted and not yet delivered in a
// FIFO, and each arrival event delivers the FIFO's head. That is exact only
// if packets arrive in the order they started; the tests below hold it to
// that where it could break: rate changes while packets are on the wire,
// corrupt packets discarded at the far end, and teardown mid-flight.

TEST(Link, WireDeliversInTransmissionOrderAcrossRateChanges) {
  // 100-400 B at 1 Gbps is 0.8-3.2 us of serialization (4x that at a
  // quarter of the rate) against 20 us of propagation, so several packets
  // share the wire each time the rate changes: first slower then faster,
  // then the other way round.
  LinkConfig cfg = test_link_cfg();
  cfg.propagation_delay = sim::microseconds(20);
  for (const double first : {0.25, 2.0}) {
    SCOPED_TRACE(first);
    sim::Scheduler sched;
    TimedSink log(sched);
    Link link(sched, "l", cfg);
    link.connect_to(&log, 0);
    std::vector<std::uint64_t> sent;
    std::vector<PacketPtr> pkts;
    for (int i = 0; i < 200; ++i) {
      pkts.push_back(packet_of(100 + static_cast<std::uint32_t>(i % 7) * 50));
      sent.push_back(pkts.back()->id);
      sched.schedule_at(sim::nanoseconds(700) * i, [&link, &pkts, i] {
        link.send(std::move(pkts[static_cast<std::size_t>(i)]));
      });
    }
    std::vector<std::uint64_t> on_wire;
    for (const auto& [at, scale] :
         {std::pair{sim::microseconds(20), first},
          std::pair{sim::microseconds(60), 1.0},
          std::pair{sim::microseconds(100), 1.0 / first}}) {
      sched.schedule_at(at, [&link, &on_wire, s = scale] {
        on_wire.push_back(link.packets_in_flight());
        link.set_rate_scale(s);
      });
    }
    sched.run();
    EXPECT_EQ(log.ids, sent);
    EXPECT_TRUE(std::is_sorted(log.times.begin(), log.times.end()));
    ASSERT_EQ(on_wire.size(), 3u);
    for (const std::uint64_t n : on_wire) EXPECT_GE(n, 2u);
    EXPECT_EQ(link.packets_in_flight(), 0u);
    EXPECT_TRUE(link.conserves_packets());
  }
}

TEST(Link, CorruptPacketIsTheOneDiscardedAtTheFarEnd) {
  // Equal 1250 B packets back to back: packet i leaves the wire at
  // 12 + 10 i us whether or not it is corrupt (a corrupt frame still
  // occupies the wire), and a corrupt one is discarded right there.
  constexpr double kCorrupt = 0.3;
  constexpr std::uint64_t kSeed = 77;
  sim::Scheduler sched;
  TimedSink log(sched);
  Link link(sched, "l", test_link_cfg());
  link.connect_to(&log, 0);
  link.set_gray_failure(0.0, kCorrupt, kSeed);
  // With no loss armed, the link draws once per packet, for corruption.
  sim::Rng draws(kSeed);
  std::vector<std::uint64_t> want_ids;
  std::vector<sim::TimeNs> want_times;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    PacketPtr p = packet_of(1250);
    if (!draws.chance(kCorrupt)) {
      want_ids.push_back(p->id);
      want_times.push_back(sim::microseconds(12 + 10 * i));
    }
    link.send(std::move(p));
  }
  const std::uint64_t corrupt = n - want_ids.size();
  ASSERT_GT(corrupt, 5u);
  sched.run();
  EXPECT_EQ(log.ids, want_ids);
  EXPECT_EQ(log.times, want_times);
  EXPECT_EQ(link.drop_stats().corrupt_pkts, corrupt);
  EXPECT_EQ(link.drop_stats().corrupt_bytes, corrupt * 1250);
  EXPECT_TRUE(link.conserves_packets());
}

TEST(Link, DestructionReturnsPacketsOnTheWireToThePool) {
  const PacketPoolStats before = packet_pool_stats();
  sim::Scheduler sched;
  SinkNode sink;
  {
    Link link(sched, "l", test_link_cfg());
    link.connect_to(&sink, 0);
    // 250 B is 2 us on the wire: packet i starts at 2i us and arrives at
    // 2i + 4 us. At 5 us packet 0 has arrived, 1 and 2 are on the wire and
    // 3-9 are queued.
    for (int i = 0; i < 10; ++i) link.send(packet_of(250));
    sched.run_until(sim::microseconds(5));
    ASSERT_EQ(sink.arrivals.size(), 1u);
    ASSERT_EQ(link.packets_in_flight(), 2u);
    ASSERT_EQ(link.queue().packets(), 7u);
  }
  const PacketPoolStats after = packet_pool_stats();
  EXPECT_EQ(after.acquired - before.acquired, 10u);
  // The sink freed the delivered packet; the link returned the other nine
  // (wire and queue) while the scheduler, which owns no packet, lives on.
  EXPECT_EQ(after.released - before.released, 10u);
}

TEST(Link, DestroyingAFabricReturnsPacketsOnTheWireToThePool) {
  const PacketPoolStats before = packet_pool_stats();
  sim::Scheduler sched;
  std::uint64_t on_wire = 0;
  {
    TopologyConfig topo;
    topo.num_leaves = 2;
    topo.num_spines = 2;
    topo.hosts_per_leaf = 2;
    Fabric fabric(sched, topo, 1);
    fabric.install_lb(lb::ecmp());
    std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
    for (HostId h = 0; h < 2; ++h) {
      FlowKey key;
      key.src_host = h;
      key.dst_host = h + 2;
      key.src_port = static_cast<std::uint16_t>(1000 + h);
      key.dst_port = 80;
      flows.push_back(std::make_unique<tcp::TcpFlow>(
          sched, fabric.host(h), fabric.host(h + 2), key, 1'000'000,
          tcp::TcpConfig{}, tcp::FlowCompleteFn{}));
      flows.back()->start();
    }
    sched.run_until(sim::microseconds(40));
    for (HostId h = 0; h < fabric.num_hosts(); ++h) {
      on_wire += fabric.host_to_leaf(h)->packets_in_flight() +
                 fabric.leaf_to_host(h)->packets_in_flight();
    }
    for (const Link* l : fabric.fabric_links()) on_wire += l->packets_in_flight();
  }
  EXPECT_GT(on_wire, 0u);
  const PacketPoolStats after = packet_pool_stats();
  EXPECT_EQ(after.released - before.released,
            after.acquired - before.acquired);
}

TEST(Link, ConservesPacketsMidFlightAndAfterDrain) {
  // Every fate at once: gray loss at admission, corruption on the wire,
  // queue overflow, and packets still queued or on the wire mid-run.
  sim::Scheduler sched;
  SinkNode sink;
  LinkConfig cfg = test_link_cfg();
  cfg.queue_capacity_bytes = 20'000;
  Link link(sched, "l", cfg);
  link.connect_to(&sink, 0);
  link.set_gray_failure(0.1, 0.1, 5);
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(sim::nanoseconds(300) * i,
                      [&link] { link.send(packet_of(1000)); });
  }
  for (const sim::TimeNs t : {sim::microseconds(17), sim::microseconds(43)}) {
    sched.run_until(t);
    EXPECT_GT(link.packets_in_flight(), 0u);
    EXPECT_GT(link.queue().packets(), 0u);
    EXPECT_TRUE(link.conserves_packets());
  }
  sched.run();
  EXPECT_EQ(link.packets_in_flight(), 0u);
  EXPECT_EQ(link.queue().packets(), 0u);
  EXPECT_GT(link.drop_stats().gray_pkts, 0u);
  EXPECT_GT(link.drop_stats().corrupt_pkts, 0u);
  EXPECT_GT(link.queue().stats().dropped_pkts, 0u);
  EXPECT_EQ(link.packets_offered(), 200u);
  EXPECT_TRUE(link.conserves_packets());
}

TEST(Link, SerializationDelayHelper) {
  sim::Scheduler sched;
  SinkNode sink;
  LinkConfig cfg;
  cfg.rate_bps = 40e9;
  Link link(sched, "l", cfg);
  EXPECT_EQ(link.serialization_delay(1500), 1500 * 8 / 40);  // 300 ns
}

}  // namespace
}  // namespace conga::net
