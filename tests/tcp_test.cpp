// Tests for the TCP implementation (SACK/FACK recovery, Tail Loss Probe):
// throughput, slow start, loss recovery, RTO behaviour, reordering, fairness.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "tcp/flow.hpp"
#include "tcp/tcp_connection.hpp"

namespace conga::tcp {
namespace {

net::TopologyConfig tiny_topo() {
  net::TopologyConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 1;
  cfg.hosts_per_leaf = 4;
  cfg.host_link_bps = 10e9;
  cfg.fabric_link_bps = 40e9;
  return cfg;
}

struct Rig {
  sim::Scheduler sched;
  net::Fabric fabric;

  explicit Rig(net::TopologyConfig topo = tiny_topo(), std::uint64_t seed = 1)
      : fabric(sched, topo, seed) {
    fabric.install_lb(lb::ecmp());
  }

  std::unique_ptr<TcpFlow> flow(net::HostId src, net::HostId dst,
                                std::uint64_t size, const TcpConfig& cfg,
                                std::uint16_t sport = 100) {
    net::FlowKey key;
    key.src_host = src;
    key.dst_host = dst;
    key.src_port = sport;
    key.dst_port = 200;
    return std::make_unique<TcpFlow>(sched, fabric.host(src),
                                     fabric.host(dst), key, size, cfg,
                                     FlowCompleteFn{});
  }
};

TcpConfig dc_tcp() {
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(10);  // fine-grained timers for DC tests
  return cfg;
}

TEST(TcpConfig, MssExcludesHeaders) {
  TcpConfig cfg;
  EXPECT_EQ(cfg.mss(), 1460u);
  cfg.mtu = 9000;
  EXPECT_EQ(cfg.mss(), 8960u);
}

TEST(Tcp, SmallFlowCompletesQuickly) {
  Rig rig;
  auto f = rig.flow(0, 4, 10'000, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  // 10 KB fits in the initial window: roughly one RTT plus transmission.
  EXPECT_LT(f->fct(), sim::microseconds(100));
}

TEST(Tcp, SingleFlowReachesLineRate) {
  Rig rig;
  const std::uint64_t size = 50'000'000;  // 50 MB
  auto f = rig.flow(0, 4, size, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  const double gbps = size * 8.0 / sim::to_seconds(f->fct()) / 1e9;
  // Must fill most of the 10G access link (headers cost ~3%).
  EXPECT_GT(gbps, 8.5);
  EXPECT_LE(gbps, 10.0);
}

TEST(Tcp, CompletionDeliversExactByteCount) {
  Rig rig;
  const std::uint64_t size = 1'234'567;
  auto f = rig.flow(0, 4, size, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_EQ(f->sink().delivered(), size);
  EXPECT_EQ(f->sender().bytes_acked(), size);
}

TEST(Tcp, SlowStartDoublesWindow) {
  Rig rig;
  TcpConfig cfg = dc_tcp();
  cfg.init_cwnd_pkts = 2;
  auto f = rig.flow(0, 4, 10'000'000, cfg);
  f->start();
  const double w0 = f->sender().cwnd_bytes();
  // After ~1 RTT (a few us in this fabric) the window should have grown
  // roughly 2x; sample after enough time for one full round trip.
  rig.sched.run_until(sim::microseconds(20));
  const double w1 = f->sender().cwnd_bytes();
  EXPECT_GE(w1, 1.8 * w0);
}

TEST(Tcp, ZeroByteFlowCompletesImmediately) {
  Rig rig;
  auto f = rig.flow(0, 4, 0, dc_tcp());
  f->start();
  rig.sched.run();
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->fct(), 0);
}

TEST(Tcp, OneByteFlow) {
  Rig rig;
  auto f = rig.flow(0, 4, 1, dc_tcp());
  f->start();
  rig.sched.run();
  EXPECT_TRUE(f->complete());
}

TEST(Tcp, TwoFlowsShareBottleneckFairly) {
  Rig rig;
  // Both flows converge on host 4's 10G access link.
  auto f1 = rig.flow(0, 4, 30'000'000, dc_tcp(), 100);
  auto f2 = rig.flow(1, 4, 30'000'000, dc_tcp(), 300);
  f1->start();
  f2->start();
  rig.sched.run();
  ASSERT_TRUE(f1->complete());
  ASSERT_TRUE(f2->complete());
  // Drop-tail + NewReno without pacing is only loosely fair; require that
  // neither flow is starved (completion times within 3x) and that the link
  // stays work-conserving (60 MB over 10G ~= 48 ms + headers/slack).
  const double ratio = static_cast<double>(f1->fct()) /
                       static_cast<double>(f2->fct());
  EXPECT_GT(ratio, 1.0 / 3.0);
  EXPECT_LT(ratio, 3.0);
  const sim::TimeNs last =
      std::max(f1->completion_time(), f2->completion_time());
  EXPECT_LT(last, sim::milliseconds(60));
}

TEST(Tcp, AggregateThroughputSaturatesSharedLink) {
  Rig rig;
  std::vector<std::unique_ptr<TcpFlow>> flows;
  const std::uint64_t size = 10'000'000;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(rig.flow(static_cast<net::HostId>(i % 2), 4, size,
                             dc_tcp(), static_cast<std::uint16_t>(100 + 16 * i)));
    flows.back()->start();
  }
  rig.sched.run();
  sim::TimeNs last = 0;
  for (auto& f : flows) {
    ASSERT_TRUE(f->complete());
    last = std::max(last, f->completion_time());
  }
  const double gbps = 4 * size * 8.0 / sim::to_seconds(last) / 1e9;
  EXPECT_GT(gbps, 8.0);
}

TEST(Tcp, RecoversFromDropsViaFastRetransmit) {
  // Tiny switch buffer forces tail drops; the flow must still complete and
  // use fast retransmit (not only timeouts).
  net::TopologyConfig topo = tiny_topo();
  topo.edge_queue_bytes = 30'000;  // ~20 packets
  Rig rig(topo);
  auto f1 = rig.flow(0, 4, 20'000'000, dc_tcp(), 100);
  auto f2 = rig.flow(1, 4, 20'000'000, dc_tcp(), 300);
  f1->start();
  f2->start();
  rig.sched.run();
  ASSERT_TRUE(f1->complete());
  ASSERT_TRUE(f2->complete());
  EXPECT_GT(f1->sender().retransmits() + f2->sender().retransmits(), 0u);
  // Goodput stays reasonable despite losses.
  const double gbps =
      40'000'000 * 8.0 /
      sim::to_seconds(std::max(f1->completion_time(), f2->completion_time())) /
      1e9;
  EXPECT_GT(gbps, 5.0);
}

TEST(Tcp, SenderTracksRtt) {
  Rig rig;
  auto f = rig.flow(0, 4, 1'000'000, dc_tcp());
  f->start();
  rig.sched.run();
  const sim::TimeNs base = rig.fabric.base_rtt(1500);
  EXPECT_GT(f->sender().srtt(), base / 2);
  // A lone unpaced flow fills the receiver-port buffer (bufferbloat): the
  // upper bound is base RTT + the full edge queue's drain time.
  const auto queue_delay = static_cast<sim::TimeNs>(
      rig.fabric.config().edge_queue_bytes * 8.0 /
      rig.fabric.config().host_link_bps * 1e9);
  EXPECT_LT(f->sender().srtt(), 2 * base + queue_delay);
}

TEST(Tcp, MinRtoIsRespected) {
  // Delay injection: break a flow by dropping everything (down link), then
  // verify the first retransmission waits at least min_rto.
  net::TopologyConfig topo = tiny_topo();
  Rig rig(topo);
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(50);
  auto f = rig.flow(0, 4, 100'000, cfg);
  // Kill the host's uplink before starting: all data blackholed.
  rig.fabric.host_to_leaf(0)->set_up(false);
  f->start();
  rig.sched.run_until(sim::milliseconds(49));
  EXPECT_EQ(f->sender().timeouts(), 0u);
  rig.sched.run_until(sim::milliseconds(120));
  EXPECT_GE(f->sender().timeouts(), 1u);
}

TEST(Tcp, RtoBacksOffExponentially) {
  Rig rig;
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(10);
  auto f = rig.flow(0, 4, 100'000, cfg);
  rig.fabric.host_to_leaf(0)->set_up(false);
  f->start();
  rig.sched.run_until(sim::milliseconds(35));
  const auto t1 = f->sender().timeouts();  // ~10ms, ~30ms
  rig.sched.run_until(sim::milliseconds(200));
  const auto t2 = f->sender().timeouts();  // + ~70ms, ~150ms
  EXPECT_GE(t1, 1u);
  EXPECT_LE(t1, 2u);
  EXPECT_GT(t2, t1);
  EXPECT_LE(t2, 5u) << "backoff must slow the retry rate";
}

TEST(Tcp, RecoversAfterBlackholeHeals) {
  Rig rig;
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(5);
  auto f = rig.flow(0, 4, 500'000, cfg);
  rig.fabric.host_to_leaf(0)->set_up(false);
  f->start();
  rig.sched.run_until(sim::milliseconds(12));
  EXPECT_FALSE(f->complete());
  rig.fabric.host_to_leaf(0)->set_up(true);
  rig.sched.run();
  EXPECT_TRUE(f->complete());
}

TEST(Tcp, ReorderingProducesDupAcksAndOooBuffering) {
  // Per-packet spraying over spines of *unequal speed* reorders heavily
  // (equal-latency idle paths would preserve order).
  net::TopologyConfig topo = tiny_topo();
  topo.num_spines = 4;
  // One spine path 20x slower: its serialization time exceeds the sender's
  // packet spacing, so a queue builds there and spraying reorders.
  topo.overrides.push_back({0, 1, 0, 0.05});
  Rig rig(topo);
  rig.fabric.install_lb(lb::spray());
  auto f = rig.flow(0, 4, 5'000'000, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_GT(f->sink().out_of_order_segments(), 0u);
}

TEST(Tcp, ReorderLedgerTracksSegmentsAndDistance) {
  // Same reordering rig as above; the sink's ledger must expose both the
  // OOO segment count and the worst gap (in bytes) ahead of rcv_nxt, and
  // the FlowHandle accessors must mirror the sink.
  net::TopologyConfig topo = tiny_topo();
  topo.num_spines = 4;
  topo.overrides.push_back({0, 1, 0, 0.05});
  Rig rig(topo);
  rig.fabric.install_lb(lb::spray());
  auto f = rig.flow(0, 4, 5'000'000, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  ASSERT_GT(f->sink().out_of_order_segments(), 0u);
  // An OOO arrival lands at least one (possibly short) segment past
  // rcv_nxt, so the worst observed gap is a positive byte count.
  EXPECT_GE(f->sink().max_reorder_distance(), 1u);
  EXPECT_EQ(f->reorder_segments(), f->sink().out_of_order_segments());
  EXPECT_EQ(f->reorder_max_distance(), f->sink().max_reorder_distance());
}

TEST(Tcp, InOrderDeliveryLeavesLedgerEmpty) {
  Rig rig;  // single flow, single path: nothing can reorder
  auto f = rig.flow(0, 4, 1'000'000, dc_tcp());
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_EQ(f->sink().out_of_order_segments(), 0u);
  EXPECT_EQ(f->sink().max_reorder_distance(), 0u);
  EXPECT_EQ(f->reorder_segments(), 0u);
  EXPECT_EQ(f->reorder_max_distance(), 0u);
}

TEST(Tcp, SinkAcksEveryDataSegment) {
  // A clean flow: one ACK back from the receiver per data segment sent.
  Rig rig;
  auto f = rig.flow(0, 4, 1'000'000, dc_tcp(), 100);
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_EQ(f->sender().retransmits(), 0u);
  EXPECT_EQ(rig.fabric.host_to_leaf(4)->packets_sent(),
            rig.fabric.host_to_leaf(0)->packets_sent());
}

TEST(Tcp, JumboFramesReduceSegmentCount) {
  Rig rig;
  TcpConfig jumbo = dc_tcp();
  jumbo.mtu = 9000;
  auto f = rig.flow(0, 4, 9'000'000, jumbo);
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  // ~9MB / 8960B ≈ 1005 segments (plus retransmits, if any).
  EXPECT_LT(f->sender().bytes_sent_total() / jumbo.mss(), 1100u);
}

TEST(Tcp, FlowsWithDistinctPortsDontInterfere) {
  Rig rig;
  auto f1 = rig.flow(0, 4, 100'000, dc_tcp(), 100);
  auto f2 = rig.flow(0, 4, 100'000, dc_tcp(), 116);
  f1->start();
  f2->start();
  rig.sched.run();
  EXPECT_TRUE(f1->complete());
  EXPECT_TRUE(f2->complete());
  EXPECT_EQ(f1->sink().delivered(), 100'000u);
  EXPECT_EQ(f2->sink().delivered(), 100'000u);
}

TEST(Tcp, CwndCappedByMaxCwnd) {
  Rig rig;
  TcpConfig cfg = dc_tcp();
  cfg.max_cwnd_bytes = 64 * 1024;
  auto f = rig.flow(0, 4, 20'000'000, cfg);
  f->start();
  rig.sched.run_until(sim::milliseconds(5));
  EXPECT_LE(f->sender().cwnd_bytes(), 64.0 * 1024 + 1);
  rig.sched.run();
  EXPECT_TRUE(f->complete());
}

TEST(Dctcp, KeepsQueueNearThreshold) {
  // DCTCP's point: full throughput with a short standing queue. Two senders
  // converge on one receiver port (a real switch bottleneck, where ECN
  // marking lives — a lone flow only queues at its own NIC).
  auto run_mode = [&](bool dctcp) {
    net::TopologyConfig topo = tiny_topo();
    if (dctcp) topo.ecn_threshold_bytes = 30'000;  // K ~= 20 packets
    Rig rig(topo);
    TcpConfig cfg = dc_tcp();
    cfg.dctcp = dctcp;
    auto f1 = rig.flow(0, 4, 20'000'000, cfg, 100);
    auto f2 = rig.flow(1, 4, 20'000'000, cfg, 300);
    f1->start();
    f2->start();
    rig.sched.run();
    EXPECT_TRUE(f1->complete());
    EXPECT_TRUE(f2->complete());
    const sim::TimeNs last =
        std::max(f1->completion_time(), f2->completion_time());
    const double gbps = 40'000'000 * 8.0 / sim::to_seconds(last) / 1e9;
    return std::pair<double, std::uint64_t>(
        gbps, rig.fabric.leaf_to_host(4)->queue().stats().max_bytes_seen);
  };
  const auto [tcp_gbps, tcp_queue] = run_mode(false);
  const auto [dctcp_gbps, dctcp_queue] = run_mode(true);
  EXPECT_GT(tcp_gbps, 6.0);  // drop-tail loss cycles cost some goodput
  EXPECT_GT(dctcp_gbps, 7.5) << "DCTCP must still fill the pipe";
  EXPECT_LT(dctcp_queue, tcp_queue / 3)
      << "DCTCP must keep the standing queue near K";
}

TEST(Dctcp, AlphaStaysInUnitInterval) {
  net::TopologyConfig topo = tiny_topo();
  topo.ecn_threshold_bytes = 20'000;
  Rig rig(topo);
  TcpConfig cfg = dc_tcp();
  cfg.dctcp = true;
  auto f1 = rig.flow(0, 4, 10'000'000, cfg, 100);
  auto f2 = rig.flow(1, 4, 10'000'000, cfg, 300);
  f1->start();
  f2->start();
  for (int ms = 1; ms <= 20; ++ms) {
    rig.sched.run_until(sim::milliseconds(ms));
    for (auto* f : {f1.get(), f2.get()}) {
      EXPECT_GE(f->sender().dctcp_alpha(), 0.0);
      EXPECT_LE(f->sender().dctcp_alpha(), 1.0);
    }
  }
  rig.sched.run();
  EXPECT_TRUE(f1->complete());
  EXPECT_TRUE(f2->complete());
}

TEST(Dctcp, SeesMarksUnderCongestion) {
  net::TopologyConfig topo = tiny_topo();
  topo.ecn_threshold_bytes = 20'000;
  Rig rig(topo);
  TcpConfig cfg = dc_tcp();
  cfg.dctcp = true;
  auto f1 = rig.flow(0, 4, 20'000'000, cfg, 100);
  auto f2 = rig.flow(1, 4, 20'000'000, cfg, 300);
  f1->start();
  f2->start();
  rig.sched.run();
  EXPECT_GT(rig.fabric.leaf_to_host(4)->queue().stats().ecn_marked_pkts, 0u);
  EXPECT_GT(f1->sender().dctcp_alpha() + f2->sender().dctcp_alpha(), 0.0);
}

TEST(Dctcp, NoEcnMeansPlainBehaviour) {
  // dctcp=true with no marking anywhere must behave like plain TCP.
  Rig rig;
  TcpConfig cfg = dc_tcp();
  cfg.dctcp = true;
  auto f = rig.flow(0, 4, 10'000'000, cfg);
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_DOUBLE_EQ(f->sender().dctcp_alpha(), 0.0);
  const double gbps = 10'000'000 * 8.0 / sim::to_seconds(f->fct()) / 1e9;
  EXPECT_GT(gbps, 8.5);
}

TEST(Tlp, TailLossRecoversInRttScale) {
  // Drop a burst mid-flow (including the window tail) by briefly killing
  // the path, then heal it: with TLP the sender probes after ~2 SRTT
  // instead of waiting the 200 ms minRTO.
  Rig rig;
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(200);  // Linux default
  cfg.max_cwnd_bytes = 30'000;           // keep the flow ACK-clocked
  auto f = rig.flow(0, 4, 2'000'000, cfg);
  f->start();
  rig.sched.run_until(sim::microseconds(800));
  rig.fabric.host_to_leaf(0)->set_up(false);
  rig.sched.run_until(sim::microseconds(860));
  rig.fabric.host_to_leaf(0)->set_up(true);
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_LT(f->fct(), sim::milliseconds(50))
      << "TLP must beat the 200 ms RTO for tail losses";
  EXPECT_EQ(f->sender().timeouts(), 0u);
  EXPECT_GT(f->sender().retransmits(), 0u);
}

TEST(Tlp, NoSpuriousProbesOnCleanPath) {
  Rig rig;
  TcpConfig cfg = dc_tcp();
  auto f = rig.flow(0, 4, 10'000'000, cfg);
  f->start();
  rig.sched.run();
  ASSERT_TRUE(f->complete());
  EXPECT_EQ(f->sender().retransmits(), 0u)
      << "an idle-path flow must not probe";
}

TEST(Tcp, HighDupackThresholdToleratesReordering) {
  // Per-packet spraying over unequal paths: a reordering-resilient transport
  // (large dupack threshold) should see far fewer spurious retransmissions.
  auto run_k = [&](int k) {
    net::TopologyConfig topo = tiny_topo();
    topo.num_spines = 4;
    // One path 10x slower but still faster than its share of the offered
    // load, plus deep fabric queues: packets are delayed and reordered but
    // never dropped, so every retransmission below is spurious.
    topo.overrides.push_back({0, 1, 0, 0.1});
    topo.fabric_queue_bytes = 64 * 1024 * 1024;
    Rig rig(topo);
    rig.fabric.install_lb(lb::spray());
    TcpConfig cfg = dc_tcp();
    cfg.dupack_segments = k;
    auto f = rig.flow(0, 4, 5'000'000, cfg);
    f->start();
    rig.sched.run();
    EXPECT_TRUE(f->complete());
    return f->sender().retransmits();
  };
  const auto rtx_std = run_k(3);
  const auto rtx_resilient = run_k(64);
  EXPECT_GT(rtx_std, 0u);
  EXPECT_LT(rtx_resilient, rtx_std / 2)
      << "reordering resilience must suppress spurious retransmits";
}

TEST(Tcp, SackDeliversExactlyUnderHeavyLoss) {
  net::TopologyConfig topo = tiny_topo();
  topo.edge_queue_bytes = 20'000;  // brutal: ~13 packets
  Rig rig(topo);
  auto f1 = rig.flow(0, 4, 5'000'000, dc_tcp(), 100);
  auto f2 = rig.flow(1, 4, 5'000'000, dc_tcp(), 300);
  auto f3 = rig.flow(2, 4, 5'000'000, dc_tcp(), 500);
  f1->start();
  f2->start();
  f3->start();
  rig.sched.run();
  for (auto* f : {f1.get(), f2.get(), f3.get()}) {
    ASSERT_TRUE(f->complete());
    EXPECT_EQ(f->sink().delivered(), 5'000'000u);
  }
}

TEST(Tcp, CompletesOverAReorderingPath) {
  // Structural check on the SACK header plumbing via a reordering path.
  net::TopologyConfig topo = tiny_topo();
  topo.num_spines = 4;
  topo.overrides.push_back({0, 1, 0, 0.05});
  Rig rig(topo);
  rig.fabric.install_lb(lb::spray());
  auto f = rig.flow(0, 4, 2'000'000, dc_tcp());
  f->start();
  rig.sched.run();
  EXPECT_TRUE(f->complete());
  EXPECT_GT(f->sink().out_of_order_segments(), 0u);
}

/// A lone sender on a NIC whose far end swallows everything, with ACKs
/// injected by hand: drives the retransmission timer deterministically.
struct TimerRig {
  /// Grants only the bytes fed to it; exhausted once closed and empty.
  class TapSource final : public ChunkSource {
   public:
    std::uint32_t grab(std::uint32_t max_bytes) override {
      const auto n =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(max_bytes, avail));
      avail -= n;
      return n;
    }
    bool exhausted() const override { return closed && avail == 0; }
    std::uint64_t avail = 0;
    bool closed = false;
  };
  class Blackhole final : public net::Node {
   public:
    void receive(net::PacketPtr, int) override {}
    std::string name() const override { return "blackhole"; }
  };

  sim::Scheduler sched;
  Blackhole far;
  net::Link nic{sched, "nic", net::LinkConfig{}};
  net::Host host{0, 0};
  TapSource source;
  TcpSender sender;

  explicit TimerRig(const TcpConfig& cfg)
      : sender(sched, host, net::FlowKey{0, 1, 100, 200}, source, cfg) {
    nic.connect_to(&far, 0);
    host.attach_uplink(&nic);
  }

  /// Delivers a cumulative ACK at `t`; a non-zero `echo_ts` is an RTT sample.
  void ack_at(sim::TimeNs t, std::uint64_t ack, std::uint64_t echo_ts = 0) {
    sched.schedule_at(t, [this, ack, echo_ts] {
      net::PacketPtr p = net::make_packet();
      p->tcp.is_ack = true;
      p->tcp.ack = ack;
      p->tcp.echo_ts = echo_ts;
      sender.on_packet(std::move(p));
    });
  }
};

TcpConfig timer_cfg() {
  TcpConfig cfg;
  cfg.min_rto = sim::milliseconds(10);
  return cfg;
}

TEST(TcpTimer, ReArmedManyTimesFiresOnceAtTheLastDeadline) {
  TimerRig rig(timer_cfg());
  rig.source.avail = 10'000'000;
  rig.source.closed = true;
  rig.sender.start();  // arms at 10 ms
  const std::uint32_t mss = rig.sender.config().mss();
  // 50 advancing ACKs, each pushing the deadline to ack time + 10 ms (no
  // RTT samples, so the RTO stays at its 10 ms floor and no probe arms).
  for (int k = 1; k <= 50; ++k) {
    rig.ack_at(sim::microseconds(100) * k, static_cast<std::uint64_t>(k) * mss);
  }
  const sim::TimeNs deadline = sim::milliseconds(5) + sim::milliseconds(10);
  rig.sched.run_until(deadline - 1);
  EXPECT_EQ(rig.sender.timeouts(), 0u);
  rig.sched.run_until(deadline);
  EXPECT_EQ(rig.sender.timeouts(), 1u);
  // The next expiry is the backed-off one, 2 x 10 ms later.
  rig.sched.run_until(deadline + sim::milliseconds(20) - 1);
  EXPECT_EQ(rig.sender.timeouts(), 1u);
  rig.sched.run_until(deadline + sim::milliseconds(20));
  EXPECT_EQ(rig.sender.timeouts(), 2u);
}

TEST(TcpTimer, DisarmedBeforeItsDeadlineNeverFires) {
  // echo_ts 0 gives no RTT sample, so only the plain RTO can arm; echo_ts 1
  // makes the sender eligible for a tail-loss probe.
  for (const std::uint64_t echo_ts : {0u, 1u}) {
    TimerRig rig(timer_cfg());
    const std::uint32_t mss = rig.sender.config().mss();
    rig.source.avail = 3u * mss;  // the source then runs dry, still open
    rig.sender.start();
    rig.ack_at(sim::microseconds(100), mss, echo_ts);
    rig.ack_at(sim::milliseconds(1), 3u * mss, echo_ts);  // nothing in flight
    rig.sched.run();
    EXPECT_EQ(rig.sender.timeouts(), 0u);
    EXPECT_EQ(rig.sender.retransmits(), 0u);
    EXPECT_FALSE(rig.sender.done());
    EXPECT_EQ(rig.sched.pending(), 0u);
    EXPECT_LT(rig.sched.now(), sim::milliseconds(2))
        << "the disarmed timer must leave no event behind";
    // New data arms the timer afresh (probe or RTO, both within 10 ms).
    rig.source.avail = mss;
    const sim::TimeNs t = rig.sched.now();
    rig.sender.pump();
    rig.sched.run_until(t + sim::milliseconds(10));
    EXPECT_GT(rig.sender.retransmits(), 0u);
  }
}

TEST(TcpTimer, BackedOffRtoIsCappedAtMaxRto) {
  // RFC 6298 (5.5): the doubling stops at kMaxRto (60 s). With a 10 s RTO
  // and no ACKs the expiries land at 10, 30, 70, then every 60 s.
  TcpConfig cfg;
  cfg.min_rto = sim::seconds(10.0);
  TimerRig rig(cfg);
  rig.source.avail = 10'000;
  rig.source.closed = true;
  rig.sender.start();
  std::uint32_t fired = 0;
  for (const double at : {10.0, 30.0, 70.0, 130.0, 190.0}) {
    rig.sched.run_until(sim::seconds(at) - 1);
    EXPECT_EQ(rig.sender.timeouts(), fired) << "before " << at << " s";
    rig.sched.run_until(sim::seconds(at));
    EXPECT_EQ(rig.sender.timeouts(), ++fired) << "at " << at << " s";
  }
}

TEST(TcpTimer, ReArmToAnEarlierDeadlineFiresThere) {
  TimerRig rig(timer_cfg());
  rig.source.avail = 10'000'000;
  rig.source.closed = true;
  rig.sender.start();  // no RTT sample yet: a plain 10 ms RTO
  const std::uint32_t mss = rig.sender.config().mss();
  const sim::TimeNs ack_time = sim::microseconds(100);
  rig.ack_at(ack_time, mss, 1);
  rig.sched.run_until(ack_time);
  // The RTT sample makes the sender eligible for a tail-loss probe at
  // ~2 SRTT + 1 ms: far before the 10 ms RTO it replaced.
  const sim::TimeNs probe_at = ack_time + 2 * rig.sender.srtt() +
                               rig.sender.config().rto_granularity();
  ASSERT_LT(probe_at, sim::milliseconds(10));
  rig.sched.run_until(probe_at - 1);
  EXPECT_EQ(rig.sender.retransmits(), 0u);
  rig.sched.run_until(probe_at);
  EXPECT_EQ(rig.sender.retransmits(), 1u) << "the probe fires at its deadline";
  EXPECT_EQ(rig.sender.timeouts(), 0u);
}

TEST(Tcp, FctScalesWithSize) {
  Rig rig;
  auto small = rig.flow(0, 4, 100'000, dc_tcp(), 100);
  auto large = rig.flow(1, 5, 10'000'000, dc_tcp(), 300);
  small->start();
  large->start();
  rig.sched.run();
  ASSERT_TRUE(small->complete());
  ASSERT_TRUE(large->complete());
  EXPECT_LT(small->fct(), large->fct());
}

}  // namespace
}  // namespace conga::tcp
