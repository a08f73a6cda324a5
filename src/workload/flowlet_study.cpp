#include "workload/flowlet_study.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace conga::workload {

namespace {
constexpr double kLineRateBps = 10e9;
constexpr std::uint32_t kBurstBytes = 64 * 1024;
constexpr double kMinAppRateBps = 50e6;
constexpr double kMaxAppRateBps = 2e9;
constexpr std::uint32_t kMtu = 1500;
}  // namespace

std::vector<TracePacket> generate_bursty_trace(const FlowSizeDist& dist,
                                               const BurstyTraceConfig& cfg) {
  sim::Rng rng(cfg.seed);
  std::vector<TracePacket> trace;
  std::uint64_t flow_id = 0;
  double t_arrival = 0;

  while (true) {
    t_arrival += rng.exponential(1.0 / cfg.flow_arrival_per_sec);
    const auto start = static_cast<sim::TimeNs>(t_arrival * 1e9);
    if (start >= cfg.duration) break;

    std::uint64_t size = dist.sample(rng);
    // Per-flow application rate (log-uniform over the configured range):
    // sets the pause between NIC bursts.
    const double log_lo = std::log(kMinAppRateBps);
    const double log_hi = std::log(kMaxAppRateBps);
    const double app_rate = std::exp(rng.uniform(log_lo, log_hi));

    sim::TimeNs t = start;
    const std::uint64_t id = flow_id++;
    while (size > 0) {
      const std::uint32_t burst = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBurstBytes, size));
      // Emit the burst as MTU packets at line rate.
      std::uint32_t remaining = burst;
      sim::TimeNs tp = t;
      while (remaining > 0) {
        const std::uint32_t pkt = std::min(kMtu, remaining);
        trace.push_back(TracePacket{tp, id, pkt});
        tp += static_cast<sim::TimeNs>(static_cast<double>(pkt) * 8.0 /
                                       kLineRateBps * 1e9);
        remaining -= pkt;
      }
      size -= burst;
      // Next burst when the application average rate catches up.
      t += static_cast<sim::TimeNs>(static_cast<double>(burst) * 8.0 /
                                    app_rate * 1e9);
    }
  }

  std::sort(trace.begin(), trace.end(),
            [](const TracePacket& a, const TracePacket& b) {
              if (a.flow_id != b.flow_id) return a.flow_id < b.flow_id;
              return a.time < b.time;
            });
  return trace;
}

std::vector<std::uint64_t> split_flowlets(const std::vector<TracePacket>& trace,
                                          sim::TimeNs gap) {
  std::vector<std::uint64_t> sizes;
  std::uint64_t cur_flow = UINT64_MAX;
  sim::TimeNs last_time = 0;
  std::uint64_t acc = 0;
  for (const TracePacket& p : trace) {
    const bool new_transfer =
        p.flow_id != cur_flow || p.time - last_time > gap;
    if (new_transfer && acc > 0) {
      sizes.push_back(acc);
      acc = 0;
    }
    cur_flow = p.flow_id;
    last_time = p.time;
    acc += p.bytes;
  }
  if (acc > 0) sizes.push_back(acc);
  return sizes;
}

std::vector<double> bytes_cdf_at(const std::vector<std::uint64_t>& sizes,
                                 const std::vector<double>& query_sizes) {
  std::vector<std::uint64_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  std::vector<double> out;
  out.reserve(query_sizes.size());
  double acc = 0;
  std::size_t i = 0;
  for (double q : query_sizes) {
    while (i < sorted.size() && static_cast<double>(sorted[i]) <= q) {
      acc += static_cast<double>(sorted[i]);
      ++i;
    }
    out.push_back(total > 0 ? acc / total : 0.0);
  }
  return out;
}

double bytes_median_size(const std::vector<std::uint64_t>& sizes,
                         double frac) {
  std::vector<std::uint64_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  double acc = 0;
  for (std::uint64_t s : sorted) {
    acc += static_cast<double>(s);
    if (acc >= frac * total) return static_cast<double>(s);
  }
  return sorted.empty() ? 0.0 : static_cast<double>(sorted.back());
}

std::vector<std::size_t> concurrent_flows(const std::vector<TracePacket>& trace,
                                          sim::TimeNs window) {
  // interval index -> set of flows; traces are small enough for a map pass.
  std::map<sim::TimeNs, std::vector<std::uint64_t>> buckets;
  for (const TracePacket& p : trace) {
    buckets[p.time / window].push_back(p.flow_id);
  }
  std::vector<std::size_t> counts;
  counts.reserve(buckets.size());
  for (auto& [idx, flows] : buckets) {
    std::sort(flows.begin(), flows.end());
    flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
    counts.push_back(flows.size());
  }
  return counts;
}

}  // namespace conga::workload
