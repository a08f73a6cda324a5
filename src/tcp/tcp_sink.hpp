// TCP receiver: reassembly and cumulative ACK generation.
//
// Every arriving data segment triggers an ACK carrying the current rcv_nxt
// (so out-of-order arrivals — e.g. from flowlet moves or packet spraying —
// produce duplicate ACKs, which is exactly the reordering sensitivity the
// paper's flowlet gap protects against). ACKs carry up to three SACK blocks
// (RFC 2018).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "net/packet.hpp"

namespace conga::tcp {

class TcpSink {
 public:
  /// `on_data(delta)` fires whenever `delta` new in-order bytes become
  /// deliverable (the application-progress signal used for FCT accounting).
  TcpSink(net::Host& local, const net::FlowKey& flow,
          std::function<void(std::uint64_t)> on_data = {});
  ~TcpSink();

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  /// Registers with the host demux.
  void start();

  void on_packet(net::PacketPtr pkt);

  std::uint64_t delivered() const { return rcv_nxt_; }
  std::uint64_t out_of_order_segments() const { return ooo_segments_; }
  /// Largest gap (bytes) between an out-of-order arrival and the in-order
  /// frontier at that moment — how far ahead the worst stray segment landed.
  std::uint64_t max_reorder_distance() const { return max_reorder_bytes_; }
  const net::FlowKey& flow() const { return flow_; }

 private:
  /// `trigger_seq`: sequence of the segment that triggered this ACK (selects
  /// the first SACK block per RFC 2018). `ecn_ce`: whether the triggering
  /// data packet carried a CE mark (echoed per packet for DCTCP).
  void send_ack(std::uint64_t echo_ts, std::uint64_t trigger_seq,
                bool ecn_ce);

  net::Host& local_;
  net::FlowKey flow_;
  std::function<void(std::uint64_t)> on_data_;

  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< seq -> end, disjoint
  std::uint64_t ooo_segments_ = 0;
  std::uint64_t max_reorder_bytes_ = 0;
  bool started_ = false;
};

}  // namespace conga::tcp
