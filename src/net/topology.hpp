// Topology description for Leaf-Spine (Clos) fabrics, 2-tier or pods.
//
// Covers every configuration the paper evaluates: the 64-server testbed
// (2 leaves x 32 hosts, 2 spines, 2x40G uplinks each — Fig 7a), its link-
// failure variant (Fig 7b), the large-scale simulations (up to 8 leaves / 12
// spines / 384 hosts, varying oversubscription — §5.5), and the 288-port
// multi-failure fabric of Fig 16 (6 leaves x 4 spines x 3 parallel 40G links).
//
// Asymmetry is expressed with LinkOverride entries: a rate factor of 0 fails
// the leaf<->spine link pair entirely (removed from forwarding tables, the
// usual outcome of link-down detection); other factors rescale its capacity
// (e.g. 0.5 models the degraded link-aggregation group of Fig 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dre.hpp"
#include "sim/time.hpp"

namespace conga::net {

struct LinkOverride {
  int leaf = 0;
  int spine = 0;
  int parallel = 0;          ///< which of the parallel links (0-based)
  double rate_factor = 0.0;  ///< 0 = failed; 0.5 = half capacity; etc.
};

struct CoreLinkOverride {
  int spine = 0;  ///< global spine index
  int core = 0;
  double rate_factor = 0.0;  ///< 0 = failed; scales fabric_link_bps
};

struct TopologyConfig {
  int num_leaves = 2;  ///< fabric-wide; split evenly across pods
  int num_spines = 2;  ///< fabric-wide; split evenly across pods
  int hosts_per_leaf = 32;
  int links_per_spine = 1;  ///< parallel links between each leaf-spine pair

  double host_link_bps = 10e9;
  double fabric_link_bps = 40e9;
  sim::TimeNs host_link_delay = sim::microseconds(1);
  sim::TimeNs fabric_link_delay = sim::microseconds(1);

  /// Switch egress buffer toward a host (where Incast bursts land).
  std::uint64_t edge_queue_bytes = 512 * 1024;
  /// Fabric (leaf<->spine) port buffers.
  std::uint64_t fabric_queue_bytes = 2 * 1024 * 1024;
  /// Host NIC/qdisc queue (host -> leaf). Must exceed the TCP window cap so
  /// a sender never drops its own packets locally (Linux's qdisc + TSQ make
  /// the local path effectively lossless).
  std::uint64_t nic_queue_bytes = 16 * 1024 * 1024;

  core::DreConfig dre;  ///< DRE parameters used on every link

  /// CE path aggregation on fabric links: max (default, the paper) or
  /// clamped sum (§7 ablation).
  bool ce_sum = false;

  /// ECN marking threshold on every switch queue (DCTCP's K); 0 disables.
  /// Used with tcp::TcpConfig::dctcp for the CONGA+DCTCP extension.
  std::uint64_t ecn_threshold_bytes = 0;

  /// Dynamic shared buffering per switch (the testbed ASICs' model): when
  /// > 0, every egress port of a leaf/spine draws from one pool of this many
  /// bytes, admitted while the port stays below
  /// shared_buffer_alpha * (free pool). Port queues keep
  /// edge/fabric_queue_bytes as hard caps (set them large to let the pool
  /// govern). 0 = static per-port buffers only.
  std::uint64_t shared_buffer_bytes = 0;
  double shared_buffer_alpha = 2.0;

  std::vector<LinkOverride> overrides;

  /// Pods: leaf l and spine s belong to pod l / leaves_per_pod() and
  /// s / spines_per_pod(); a leaf wires only to its own pod's spines. Core
  /// links run at fabric_link_bps (times their override's rate factor).
  int num_pods = 1;
  int num_cores = 0;  ///< >= 1 iff num_pods > 1
  std::vector<CoreLinkOverride> core_overrides;

  int num_hosts() const { return num_leaves * hosts_per_leaf; }
  int leaves_per_pod() const { return num_leaves / num_pods; }
  int spines_per_pod() const { return num_spines / num_pods; }
  int pod_of_leaf(int leaf) const { return leaf / leaves_per_pod(); }
  int pod_of_spine(int spine) const { return spine / spines_per_pod(); }
  int uplinks_per_leaf() const { return spines_per_pod() * links_per_spine; }

  /// Total leaf->fabric capacity of one leaf with no overrides, in bits/s.
  double leaf_uplink_capacity_bps() const {
    return fabric_link_bps * uplinks_per_leaf();
  }

  /// Validates invariants (counts positive, pods divide the totals,
  /// overrides in range and within a pod, LBTag fits in 4 bits); returns a
  /// description of the first problem, or empty if OK.
  std::string validate() const;
};

/// The paper's baseline testbed (Fig 7a): 2 leaves x 32 x 10G hosts,
/// 2 spines, 2 x 40G uplinks per leaf-spine pair (2:1 oversubscription).
TopologyConfig testbed_baseline();

/// Fig 7b: the baseline with one of the Leaf1-Spine1 links failed.
TopologyConfig testbed_link_failure();

}  // namespace conga::net
