// Congestion-To-Leaf and Congestion-From-Leaf tables (paper §3.3, Fig 6).
//
//  * Congestion-To-Leaf (at the *source* leaf): remote path congestion per
//    (destination leaf, uplink/LBTag) — the values the load-balancing
//    decision combines with the local DREs. Populated from piggybacked
//    feedback.
//  * Congestion-From-Leaf (at the *destination* leaf): latest CE received per
//    (source leaf, LBTag), waiting to be fed back. Feedback is selected
//    round-robin, favouring entries whose value changed since they were last
//    fed back (§3.3 step 4).
//
// Both tables age: a metric not refreshed within `age_after` decays linearly
// to zero over the following `age_after` period ("a simple aging mechanism
// ... gradually decays to zero", §3.3), which also guarantees a
// congested-looking path is eventually probed again.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/flow_key.hpp"
#include "sim/time.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::core {

struct MetricCell {
  std::uint8_t value = 0;
  sim::TimeNs updated = -1;  ///< -1: never written
};

struct CongestionTableConfig {
  int num_leaves = 0;
  int num_uplinks = 0;  ///< max LBTag values (<= 16 with the 4-bit field)
  sim::TimeNs age_after = sim::milliseconds(10);
  /// Prefer entries whose value changed since last fed back (§3.3 step 4
  /// optimization); false = plain round-robin (ablation).
  bool favor_changed = true;
};

/// Applies the aging rule to a raw cell value.
std::uint8_t aged_value(const MetricCell& cell, sim::TimeNs now,
                        sim::TimeNs age_after);

/// Remote metrics table at the source leaf: [dst_leaf][uplink] -> metric.
class CongestionToLeafTable {
 public:
  explicit CongestionToLeafTable(const CongestionTableConfig& cfg);

  /// Records feedback: congestion `metric` for our uplink `lbtag` on paths
  /// toward `dst_leaf`.
  void update(net::LeafId dst_leaf, int lbtag, std::uint8_t metric,
              sim::TimeNs now);

  /// The aged remote metric for (dst_leaf, uplink). Unknown cells read 0,
  /// so unprobed paths look attractive and get explored.
  std::uint8_t metric(net::LeafId dst_leaf, int uplink, sim::TimeNs now) const;

  const CongestionTableConfig& config() const { return cfg_; }

  /// Routes update events to `sink` under component `comp`.
  void set_telemetry(telemetry::TraceSink* sink, std::uint32_t comp) {
    tele_ = sink;
    tele_comp_ = comp;
  }

 private:
  CongestionTableConfig cfg_;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
  std::vector<MetricCell> cells_;  // row-major [leaf][uplink]
};

/// Received-CE table at the destination leaf: [src_leaf][lbtag] -> metric,
/// with the round-robin / changed-first feedback selector. Each source leaf
/// keeps two LBTag bitmasks, one word each since there are at most 16 tags:
/// the cells ever written, and those whose value changed since last fed
/// back. A pick is a next-set-bit search from the round-robin cursor.
class CongestionFromLeafTable {
 public:
  explicit CongestionFromLeafTable(const CongestionTableConfig& cfg);

  /// Records the CE of a packet received from `src_leaf` with tag `lbtag`.
  void update(net::LeafId src_leaf, int lbtag, std::uint8_t ce,
              sim::TimeNs now);

  struct Feedback {
    std::uint8_t lbtag;
    std::uint8_t metric;
  };

  /// Picks the feedback pair to piggyback on a packet headed to `dst_leaf`
  /// (the reverse of the direction the metrics describe): round-robin over
  /// LBTags, preferring changed entries; marks the chosen one clean.
  /// Returns nullopt if nothing was ever received from that leaf.
  std::optional<Feedback> pick_feedback(net::LeafId dst_leaf, sim::TimeNs now);

  /// Raw (un-aged) view for tests.
  std::uint8_t raw(net::LeafId src_leaf, int lbtag) const;

  /// Routes update events to `sink` under component `comp`.
  void set_telemetry(telemetry::TraceSink* sink, std::uint32_t comp) {
    tele_ = sink;
    tele_comp_ = comp;
  }

 private:
  /// Per-source-leaf selector state; bit i of a mask is LBTag i.
  struct Row {
    std::uint16_t written = 0;  ///< cells ever written
    std::uint16_t changed = 0;  ///< cells changed since last fed back
    std::uint8_t cursor = 0;    ///< the tag after the last pick
  };

  CongestionTableConfig cfg_;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
  std::vector<MetricCell> cells_;  // row-major [leaf][lbtag]
  std::vector<Row> rows_;
};

}  // namespace conga::core
