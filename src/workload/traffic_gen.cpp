#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace conga::workload {

namespace {
/// The optimal FCT assumes standard 1500-byte frames, whatever MTU the
/// transport under test uses.
constexpr std::uint32_t kMss = 1500 - net::kIpTcpHeaderBytes;
}  // namespace

TrafficGenerator::TrafficGenerator(net::Fabric& fabric,
                                   tcp::FlowFactory factory,
                                   const FlowSizeDist& dist,
                                   const TrafficGenConfig& cfg)
    : fabric_(fabric),
      factory_(std::move(factory)),
      dist_(dist),
      cfg_(cfg),
      rng_(cfg.seed) {
  // Offered bytes/sec such that each leaf's uplinks see `load`:
  // every flow crosses the fabric exactly once and sources are uniform over
  // leaves, so each leaf's egress carries a 1/L share of the total.
  const auto& topo = fabric_.config();
  const double capacity_bytes =
      topo.leaf_uplink_capacity_bps() / 8.0 * topo.num_leaves;
  lambda_ = cfg_.load * capacity_bytes / dist_.mean_bytes();
  assert(topo.num_leaves >= 2 && "inter-leaf traffic needs >= 2 leaves");
}

void TrafficGenerator::start() {
  fabric_.scheduler().schedule_at(0, [this] { schedule_next_arrival(); });
}

void TrafficGenerator::schedule_next_arrival() {
  const double gap_sec = rng_.exponential(1.0 / lambda_);
  const auto gap = static_cast<sim::TimeNs>(gap_sec * 1e9);
  fabric_.scheduler().schedule_after(gap, [this] {
    if (fabric_.scheduler().now() >= cfg_.stop) return;
    launch_flow();
    schedule_next_arrival();
  });
}

sim::TimeNs TrafficGenerator::optimal_fct(std::uint64_t size) const {
  const std::uint64_t pkts = std::max<std::uint64_t>(
      1, (size + kMss - 1) / kMss);
  const double wire_bytes =
      static_cast<double>(size) +
      static_cast<double>(pkts) * net::kIpTcpHeaderBytes;
  const double rate = fabric_.config().host_link_bps;
  // The first packet (possibly shorter than one MTU) pipelines store-and-
  // forward through the fabric; the remaining bytes then stream at the
  // access-link rate behind it.
  const auto first_pkt = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(size, kMss) + net::kIpTcpHeaderBytes);
  const auto rest = static_cast<sim::TimeNs>(
      (wire_bytes - first_pkt) * 8.0 / rate * 1e9);
  return fabric_.one_way_latency(first_pkt) + std::max<sim::TimeNs>(rest, 0);
}

void TrafficGenerator::launch_flow() {
  net::HostId src, dst;
  if (cfg_.pair_picker) {
    std::tie(src, dst) = cfg_.pair_picker(rng_);
  } else {
    const int num_hosts = fabric_.num_hosts();
    src = static_cast<net::HostId>(
        rng_.index(static_cast<std::size_t>(num_hosts)));
    dst = src;
    while (fabric_.leaf_of(dst) == fabric_.leaf_of(src)) {
      dst = static_cast<net::HostId>(
          rng_.index(static_cast<std::size_t>(num_hosts)));
    }
  }

  const std::uint64_t size = dist_.sample(rng_);
  const std::uint64_t id = started_++;

  net::FlowKey key;
  key.src_host = src;
  key.dst_host = dst;
  // Unique (sport, dport) per flow id, with stride 16 on sport so MPTCP
  // subflow ports never collide across flows.
  key.src_port = static_cast<std::uint16_t>((id % 4096) * 16);
  key.dst_port = static_cast<std::uint16_t>(1 + (id / 4096) % 60000);

  const sim::TimeNs now = fabric_.scheduler().now();
  const bool measured = now >= cfg_.measure_start && now < cfg_.measure_stop;
  if (measured) ++measured_started_;

  auto flow = factory_(
      fabric_.scheduler(), fabric_.host(src), fabric_.host(dst), key, size,
      [this, id](tcp::FlowHandle& f) { on_flow_complete(id, f); });
  tcp::FlowHandle* raw = flow.get();
  flows_.emplace(id, std::move(flow));
  if (monitor_ != nullptr) monitor_->on_flow_started(id, *raw);
  raw->start();
}

void TrafficGenerator::on_flow_complete(std::uint64_t id,
                                        tcp::FlowHandle& flow) {
  const bool measured = flow.start_time() >= cfg_.measure_start &&
                        flow.start_time() < cfg_.measure_stop;
  if (measured) {
    ++measured_completed_;
    collector_.record(flow.size(), flow.fct(), optimal_fct(flow.size()));
    collector_.record_reorder(flow.reorder_segments(),
                              flow.reorder_max_distance());
  }
  if (monitor_ != nullptr) monitor_->on_flow_finished(id);
  dead_.push_back(id);
  if (!reap_scheduled_) {
    reap_scheduled_ = true;
    fabric_.scheduler().schedule_after(0, [this] { reap(); });
  }
}

void TrafficGenerator::account_unfinished() {
  std::vector<std::uint64_t> ids;
  ids.reserve(flows_.size());
  // conga-lint: allow(unordered-iter): collects ids only, sorted below
  // before anything order-sensitive (the collector) consumes them.
  for (const auto& [id, flow] : flows_) {
    if (!flow->complete()) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    const tcp::FlowHandle& f = *flows_.at(id);
    const bool measured = f.start_time() >= cfg_.measure_start &&
                          f.start_time() < cfg_.measure_stop;
    if (measured) collector_.record_unfinished(f.size(), f.progress_bytes());
  }
}

void TrafficGenerator::reap() {
  reap_scheduled_ = false;
  for (std::uint64_t id : dead_) flows_.erase(id);
  dead_.clear();
}

bool run_with_drain(sim::Scheduler& sched, TrafficGenerator& gen,
                    sim::TimeNs stop, sim::TimeNs max_drain) {
  sched.run_until(stop);
  const sim::TimeNs deadline = stop + max_drain;
  // Step in chunks so we can check the completion predicate cheaply.
  const sim::TimeNs step = sim::milliseconds(1);
  while (!gen.all_measured_complete() && sched.now() < deadline) {
    sched.run_until(sched.now() + step);
  }
  return gen.all_measured_complete();
}

}  // namespace conga::workload
