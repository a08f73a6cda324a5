// TCP sender: Linux-style SACK/FACK loss recovery over the simulated fabric.
//
// Implements the loss-recovery machinery the paper's results depend on:
//  * slow start and AIMD congestion avoidance (byte-counting),
//  * a SACK scoreboard with FACK loss detection (`dupack_segments` past the
//    cumulative ACK) and early retransmit for short tails, then RFC 6675
//    style pipe-based recovery that repairs every hole in about one RTT,
//  * Tail Loss Probe: a probe at ~2 SRTT before the first RTO of a flight,
//  * RFC 6298 RTO estimation (SRTT/RTTVAR from timestamp echoes) with
//    exponential backoff capped at kMaxRto and a configurable minRTO,
//  * go-back-N after a timeout.
//
// There is no SYN handshake: flows start sending data immediately, the usual
// simulator idealisation (connection setup is not load-balancing-relevant).
// Payload bytes are modelled as counts; sequence numbers are flow offsets.
//
// The class is also the base for MPTCP subflows, which override the
// congestion-avoidance increase (ca_increase) with the coupled LIA rule and
// share a data allocator through the ChunkSource interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_config.hpp"

namespace conga::telemetry {
enum class EventType : std::uint8_t;
}  // namespace conga::telemetry

namespace conga::tcp {

/// Source of payload bytes for a sender. Plain TCP uses a fixed budget;
/// MPTCP subflows pull chunks from a connection-level allocator at send time.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;
  /// Grants up to `max_bytes` of new payload; 0 means exhausted *for now*
  /// (a later call may still return bytes only if exhausted() is false).
  virtual std::uint32_t grab(std::uint32_t max_bytes) = 0;
  /// True once no further bytes will ever be granted.
  virtual bool exhausted() const = 0;
};

/// Fixed-size source for plain TCP flows.
class FixedSource final : public ChunkSource {
 public:
  explicit FixedSource(std::uint64_t total) : remaining_(total) {}
  std::uint32_t grab(std::uint32_t max_bytes) override {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_bytes, remaining_));
    remaining_ -= n;
    return n;
  }
  bool exhausted() const override { return remaining_ == 0; }

 private:
  std::uint64_t remaining_;
};

class TcpSender {
 public:
  /// `source` must outlive the sender. `on_done` fires when every sent byte
  /// has been cumulatively ACKed and the source is exhausted.
  TcpSender(sim::Scheduler& sched, net::Host& local, const net::FlowKey& flow,
            ChunkSource& source, const TcpConfig& cfg,
            std::function<void()> on_done = {});
  virtual ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Registers with the host and sends the initial window.
  void start();

  /// Entry point for incoming (ACK) packets, wired via Host::register_flow.
  void on_packet(net::PacketPtr pkt);

  /// Nudges the sender to (re)fill the window — used by MPTCP when the
  /// shared allocator gains headroom and after subflow events.
  void pump();

  bool done() const { return done_; }
  double cwnd_bytes() const { return cwnd_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  std::uint64_t bytes_sent_total() const { return bytes_sent_total_; }
  std::uint32_t retransmits() const { return retransmits_; }
  std::uint32_t timeouts() const { return timeouts_; }
  double dctcp_alpha() const { return dctcp_alpha_; }
  sim::TimeNs srtt() const { return srtt_; }
  const net::FlowKey& flow() const { return flow_; }
  const TcpConfig& config() const { return cfg_; }

 protected:
  /// Congestion-avoidance increase per ACK of `bytes_acked` — Reno by
  /// default; MPTCP's LIA overrides this.
  virtual void ca_increase(std::uint64_t bytes_acked);

  /// Invoked on every loss event (fast retransmit or RTO), after the window
  /// reduction — lets MPTCP recompute its coupling factor.
  virtual void on_loss_event() {}

  std::uint32_t mss() const { return cfg_.mss(); }

  double cwnd_ = 0;  ///< congestion window, bytes (fractional for smooth CA)

 private:
  void send_available();
  void emit_segment(std::uint64_t seq, std::uint32_t len);
  void handle_ack(const net::TcpHeader& hdr, bool ecn_echo);
  // SACK/FACK machinery.
  void apply_sack(const net::TcpHeader& hdr);
  void enter_sack_recovery();
  std::uint64_t sacked_bytes_in(std::uint64_t from, std::uint64_t to) const;
  /// First unsacked gap in [from, limit); false if none.
  bool find_unsacked_gap(std::uint64_t from, std::uint64_t limit,
                         std::uint64_t* gap_start,
                         std::uint64_t* gap_len) const;
  /// Estimated bytes in flight, accounting for SACKed and presumed-lost data.
  double pipe_bytes() const;
  void on_rto();
  /// (Re)starts the retransmission/probe timer from now.
  void arm_rto();
  void disarm_rto();
  void schedule_rto_event();
  /// Timer event: fires the RTO/TLP at the deadline, re-homes if early.
  void on_rto_event();
  void update_rtt(sim::TimeNs sample);
  void maybe_finish();
  std::uint64_t flight() const { return snd_nxt_ - snd_una_; }
  /// Emits a kTcp/kFlow telemetry event for this connection (a: flow hash).
  void tele(telemetry::EventType type, std::uint64_t b);

  sim::Scheduler& sched_;
  net::Host& local_;
  net::FlowKey flow_;
  ChunkSource& source_;
  TcpConfig cfg_;
  std::function<void()> on_done_;

  std::uint64_t snd_una_ = 0;  ///< lowest unacked byte
  std::uint64_t snd_nxt_ = 0;  ///< next byte to send
  std::uint64_t snd_max_ = 0;  ///< highest byte ever sent (== allocated)
  double ssthresh_;
  std::uint64_t recover_ = 0;  ///< recovery point

  // DCTCP state (cfg.dctcp == true).
  void dctcp_on_ack(std::uint64_t bytes_acked, bool ece);
  double dctcp_alpha_ = 0;
  std::uint64_t dctcp_window_end_ = 0;
  std::uint64_t dctcp_acked_ = 0;
  std::uint64_t dctcp_marked_ = 0;

  // SACK scoreboard: merged received-above-cumulative ranges [start, end).
  std::map<std::uint64_t, std::uint64_t> sacked_;
  std::uint64_t fack_ = 0;      ///< forward-most SACKed byte
  std::uint64_t rtx_next_ = 0;  ///< retransmission scan pointer (per epoch)
  bool sack_recovery_ = false;

  // RTO state (RFC 6298) and Tail Loss Probe.
  sim::TimeNs srtt_ = 0;
  sim::TimeNs rttvar_ = 0;
  sim::TimeNs rto_;
  int backoff_ = 0;
  // Lazy timer: re-arming only moves the deadline ticket. At most one event
  // is live; one that fires before the deadline re-homes itself onto it, so
  // a busy flow costs one event per deadline crossed, not one per ACK.
  bool rto_armed_ = false;
  sim::Ticket rto_deadline_;  ///< where the armed timer goes off
  sim::EventId rto_event_ = sim::kInvalidEventId;  ///< live event, if any
  sim::TimeNs rto_event_time_ = 0;                 ///< its time
  bool timer_is_tlp_ = false;  ///< armed timer is a probe, not an RTO
  bool tlp_done_ = false;      ///< one probe per flight
  void on_tlp();

  bool started_ = false;
  bool done_ = false;
  /// Shared "tcp" component id, interned lazily on the first event
  /// (0xffffffff == telemetry::kInvalidComponent == not yet interned).
  std::uint32_t tele_comp_ = 0xffffffffU;
  std::uint64_t bytes_sent_total_ = 0;
  std::uint32_t retransmits_ = 0;
  std::uint32_t timeouts_ = 0;
};

}  // namespace conga::tcp
