#include "workload/incast_gen.hpp"

#include <cassert>
#include <utility>

namespace conga::workload {

namespace {
/// Port space of Incast flows, disjoint from the other generators'.
constexpr std::uint16_t kBasePort = 2000;
/// Per-server response jitter (uniform in [0, this]): real servers never
/// reply in perfect lockstep, and without jitter the deterministic simulator
/// repeats the exact same collision pattern every round.
constexpr sim::TimeNs kStartJitter = sim::microseconds(20);
}  // namespace

IncastGenerator::IncastGenerator(net::Fabric& fabric,
                                 tcp::FlowFactory factory,
                                 const IncastConfig& cfg)
    : fabric_(fabric),
      factory_(std::move(factory)),
      cfg_(cfg),
      rng_(cfg.seed) {
  assert(!cfg_.servers.empty());
}

void IncastGenerator::start() {
  fabric_.scheduler().schedule_after(0, [this] {
    first_start_ = fabric_.scheduler().now();
    start_round();
  });
}

void IncastGenerator::start_round() {
  // The request fan-out costs one client->server one-way delay; model it as
  // half the base RTT before the synchronized responses fire.
  const sim::TimeNs request_delay = fabric_.base_rtt(200) / 2;
  fabric_.scheduler().schedule_after(request_delay, [this] {
    round_flows_.clear();
    const auto n = static_cast<std::uint64_t>(cfg_.servers.size());
    const std::uint64_t per_server = std::max<std::uint64_t>(
        1, cfg_.total_bytes / n);
    pending_ = static_cast<int>(cfg_.servers.size());
    for (net::HostId server : cfg_.servers) {
      net::FlowKey key;
      key.src_host = server;
      key.dst_host = cfg_.client;
      key.src_port = static_cast<std::uint16_t>(
          kBasePort + (flow_seq_ % 2048) * 16);
      key.dst_port = static_cast<std::uint16_t>(
          kBasePort + 1 + flow_seq_ / 2048);
      ++flow_seq_;
      auto flow = factory_(fabric_.scheduler(), fabric_.host(server),
                           fabric_.host(cfg_.client), key, per_server,
                           [this](tcp::FlowHandle&) { on_flow_complete(); });
      round_flows_.push_back(std::move(flow));
    }
    // Start after building the whole batch (completions mutate no state the
    // loop still touches), each server with its own small response jitter.
    for (auto& f : round_flows_) {
      tcp::FlowHandle* raw = f.get();
      const auto jitter =
          static_cast<sim::TimeNs>(rng_.uniform_int(0, kStartJitter));
      fabric_.scheduler().schedule_after(jitter, [raw] { raw->start(); });
    }
  });
}

void IncastGenerator::on_flow_complete() {
  if (--pending_ > 0) return;
  ++rounds_done_;
  last_end_ = fabric_.scheduler().now();
  if (rounds_done_ < cfg_.rounds) {
    // Defer: destroying the finished flows must not happen inside their own
    // completion callback.
    fabric_.scheduler().schedule_after(0, [this] { start_round(); });
  }
}

double IncastGenerator::goodput_fraction() const {
  if (rounds_done_ == 0 || last_end_ <= first_start_) return 0;
  const auto n = static_cast<std::uint64_t>(cfg_.servers.size());
  const std::uint64_t per_round =
      std::max<std::uint64_t>(1, cfg_.total_bytes / n) * n;
  const double bytes =
      static_cast<double>(per_round) * static_cast<double>(rounds_done_);
  const double secs = sim::to_seconds(last_end_ - first_start_);
  const double rate = fabric_.config().host_link_bps;
  return bytes * 8.0 / secs / rate;
}

}  // namespace conga::workload
