// TCP sender parameters, shared by plain flows and MPTCP subflows. The
// stack itself is fixed: Linux TCP of the paper's era, with SACK/FACK loss
// recovery and Tail Loss Probe, and a receiver that ACKs every segment.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace conga::tcp {

/// Upper bound on the retransmission timeout (RFC 6298 §2.5 allows any
/// maximum of at least 60 s). A minimum RTO must lie in (0, kMaxRto].
constexpr sim::TimeNs kMaxRto = sim::seconds(60.0);

struct TcpConfig {
  std::uint32_t mtu = 1500;           ///< bytes incl. IP+TCP headers
  std::uint32_t init_cwnd_pkts = 10;  ///< IW10, the modern Linux default
  std::uint64_t max_cwnd_bytes = 4 * 1024 * 1024;  ///< receive-window cap

  /// Minimum retransmission timeout. The paper evaluates 200 ms (the Linux
  /// default) and 1 ms (Vasudevan et al.'s Incast remedy) in Fig 13.
  sim::TimeNs min_rto = sim::milliseconds(200);

  /// Loss-inference threshold in segments (the classic dupack threshold /
  /// FACK gap). Raising it makes TCP reordering-resilient at the cost of
  /// slower loss detection — what Fig 1's "per packet ... optimal, needs
  /// reordering-resilient TCP" branch assumes.
  int dupack_segments = 3;

  /// DCTCP congestion control (Alizadeh et al., SIGCOMM 2010): scale cwnd by
  /// the fraction of ECN-marked bytes once per window. Needs ECN marking in
  /// the fabric (TopologyConfig::ecn_threshold_bytes). An extension beyond
  /// the paper's testbed TCP, for the CONGA+DCTCP ablation.
  bool dctcp = false;

  std::uint32_t mss() const { return mtu - 40; }

  /// Timer granularity for the RTO calculation: fine-grained timers come
  /// along with a small minRTO (RFC 6298's G term).
  sim::TimeNs rto_granularity() const {
    return std::min<sim::TimeNs>(sim::milliseconds(1), min_rto / 4);
  }
};

}  // namespace conga::tcp
