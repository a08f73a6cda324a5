#include "tcp/mptcp_connection.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace conga::tcp {

namespace {
/// RTT to use for subflows that have no sample yet (a plausible loaded-DC
/// round trip; only influences alpha before the first real samples arrive).
constexpr double kDefaultRttSec = 100e-6;

double rtt_seconds(const TcpSender& s) {
  return s.srtt() > 0 ? sim::to_seconds(s.srtt()) : kDefaultRttSec;
}
}  // namespace

MptcpFlow::MptcpFlow(sim::Scheduler& sched, net::Host& src, net::Host& dst,
                     const net::FlowKey& base_key, std::uint64_t size,
                     const MptcpConfig& cfg, FlowCompleteFn on_complete)
    : FlowHandle(size, sched.now()),
      sched_(sched),
      source_(size),
      on_complete_(std::move(on_complete)) {
  const int n = std::max(1, cfg.num_subflows);
  subflows_.reserve(static_cast<std::size_t>(n));
  sinks_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    net::FlowKey key = base_key;
    key.src_port = static_cast<std::uint16_t>(base_key.src_port + i);
    key.dst_port = base_key.dst_port;
    subflows_.push_back(
        std::make_unique<Subflow>(*this, sched, src, key, source_, cfg.tcp));
    sinks_.push_back(std::make_unique<TcpSink>(
        dst, key, [this](std::uint64_t delta) { on_subflow_data(delta); }));
  }
}

void MptcpFlow::start() {
  for (auto& sink : sinks_) sink->start();
  for (auto& sf : subflows_) sf->start();
  if (size() == 0 && !complete()) {
    mark_complete(sched_.now());
    if (on_complete_) on_complete_(*this);
  }
}

double MptcpFlow::total_cwnd() const {
  double total = 0;
  for (const auto& sf : subflows_) total += sf->cwnd_bytes();
  return total;
}

void MptcpFlow::recompute_alpha() {
  // RFC 6356: alpha = total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2.
  double total = 0, best = 0, denom = 0;
  for (const auto& sf : subflows_) {
    const double w = sf->cwnd_bytes();
    const double rtt = rtt_seconds(*sf);
    total += w;
    best = std::max(best, w / (rtt * rtt));
    denom += w / rtt;
  }
  if (denom <= 0) {
    alpha_ = 1.0;
    return;
  }
  alpha_ = total * best / (denom * denom);
}

void MptcpFlow::Subflow::ca_increase(std::uint64_t bytes_acked) {
  conn_.recompute_alpha();
  const double total = conn_.total_cwnd();
  const double b = static_cast<double>(bytes_acked);
  const double m = static_cast<double>(mss());
  const double coupled = conn_.alpha_ * b * m / std::max(total, 1.0);
  const double uncoupled = b * m / std::max(cwnd_, 1.0);
  cwnd_ += std::min(coupled, uncoupled);
}

void MptcpFlow::on_subflow_data(std::uint64_t delta) {
  delivered_ += delta;
  if (!complete() && delivered_ >= size()) {
    mark_complete(sched_.now());
    if (on_complete_) on_complete_(*this);
  }
}

FlowFactory make_mptcp_flow_factory(const MptcpConfig& cfg) {
  return [cfg](sim::Scheduler& sched, net::Host& src, net::Host& dst,
               const net::FlowKey& key, std::uint64_t size,
               FlowCompleteFn on_complete) -> std::unique_ptr<FlowHandle> {
    return std::make_unique<MptcpFlow>(sched, src, dst, key, size, cfg,
                                       std::move(on_complete));
  };
}

}  // namespace conga::tcp
