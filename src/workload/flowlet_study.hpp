// Flowlet measurement study (paper §2.6.1, Fig 5).
//
// The paper instruments a 4500-host production cluster and shows how packet
// inter-arrival gaps split flows into flowlets: with a 500 µs inactivity gap
// the transfer size covering most bytes drops by ~2 orders of magnitude
// (~30 MB for whole flows -> ~500 KB for flowlets).
//
// We cannot use the proprietary trace, so this module provides (a) a
// synthetic bursty trace generator modelling the burstiness source the paper
// identifies — NIC offloads emitting ~64 KB bursts at line rate with pauses
// set by the flow's application rate — and (b) the *same analysis code* that
// would run on a real trace: a splitter grouping per-flow packet timestamps
// into flowlets for a given gap, and byte-weighted size CDFs.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::workload {

struct TracePacket {
  sim::TimeNs time;
  std::uint64_t flow_id;
  std::uint32_t bytes;
};

/// Flows emit 64 KB bursts (a typical TSO burst) as 1500-byte
/// packets at a 10 Gbps line rate; each flow's average application rate is
/// drawn log-uniformly from [50 Mbps, 2 Gbps], which sets the pause between
/// its bursts (burst/app_rate - burst/line_rate).
struct BurstyTraceConfig {
  double flow_arrival_per_sec = 2000;
  sim::TimeNs duration = sim::seconds(2.0);
  std::uint64_t seed = 3;
};

/// Generates packet arrival records for flows drawn from `dist`.
/// Records are returned sorted by flow then time (sufficient for splitting).
std::vector<TracePacket> generate_bursty_trace(const FlowSizeDist& dist,
                                               const BurstyTraceConfig& cfg);

/// Splits a trace into flowlets with inactivity gap `gap`; returns the bytes
/// of every resulting transfer. (gap >= any intra-flow pause returns whole
/// flows.) The trace must be grouped by flow with times ascending per flow.
std::vector<std::uint64_t> split_flowlets(const std::vector<TracePacket>& trace,
                                          sim::TimeNs gap);

/// Byte-weighted CDF over transfer sizes: returns fraction of all bytes in
/// transfers of size <= each query point.
std::vector<double> bytes_cdf_at(const std::vector<std::uint64_t>& sizes,
                                 const std::vector<double>& query_sizes);

/// Transfer size at which the byte-weighted CDF crosses `frac` (e.g. 0.5 =
/// "50% of bytes are in transfers larger than this").
double bytes_median_size(const std::vector<std::uint64_t>& sizes,
                         double frac = 0.5);

/// Number of distinct flows with >= 1 packet in each `window`-long interval;
/// returns the per-interval counts (the paper's concurrent-flowlet estimate).
std::vector<std::size_t> concurrent_flows(const std::vector<TracePacket>& trace,
                                          sim::TimeNs window);

}  // namespace conga::workload
