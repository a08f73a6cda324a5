#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "debug/invariants.hpp"
#include "telemetry/telemetry.hpp"

#if defined(CONGA_CHECK_INVARIANTS) && CONGA_CHECK_INVARIANTS
#include <string>

namespace {
// Violation-report label for a sender: the connection's data-direction tuple.
std::string tcp_node_name(const conga::net::FlowKey& f) {
  return "tcp host" + std::to_string(f.src_host) + "->host" +
         std::to_string(f.dst_host) + ":" + std::to_string(f.dst_port);
}
}  // namespace
#endif

namespace conga::tcp {

namespace {
constexpr double kDctcpG = 1.0 / 16;  ///< EWMA gain for the marked fraction
}  // namespace

TcpSender::TcpSender(sim::Scheduler& sched, net::Host& local,
                     const net::FlowKey& flow, ChunkSource& source,
                     const TcpConfig& cfg, std::function<void()> on_done)
    : sched_(sched),
      local_(local),
      flow_(flow),
      source_(source),
      cfg_(cfg),
      on_done_(std::move(on_done)),
      ssthresh_(static_cast<double>(cfg.max_cwnd_bytes)),
      rto_(std::max<sim::TimeNs>(cfg.min_rto, sim::milliseconds(10))) {
  cwnd_ = static_cast<double>(cfg.init_cwnd_pkts) * mss();
}

TcpSender::~TcpSender() {
  sched_.cancel(rto_event_);
  if (started_) local_.unregister_flow(flow_);
}

void TcpSender::tele(telemetry::EventType type, std::uint64_t b) {
  telemetry::TraceSink* sink = sched_.telemetry();
  if (sink == nullptr) return;
  // All senders share one "tcp" component: per-flow rings would let a long
  // run register unbounded components, and the flow hash in `a` already
  // attributes each event.
  if (tele_comp_ == telemetry::kInvalidComponent) {
    tele_comp_ = sink->intern_component("tcp");
  }
  telemetry::emit(sink, type, tele_comp_, sched_.now(), flow_.hash(), b);
}

void TcpSender::start() {
  if (started_) return;
  started_ = true;
  local_.register_flow(flow_,
                       [this](net::PacketPtr pkt) { on_packet(std::move(pkt)); });
  tele(telemetry::EventType::kFlowStart, 0);
  send_available();
  maybe_finish();  // zero-byte flows complete immediately
}

void TcpSender::pump() {
  if (started_ && !done_) send_available();
}

void TcpSender::emit_segment(std::uint64_t seq, std::uint32_t len) {
  net::PacketPtr pkt = net::make_packet();
  pkt->flow = flow_;
  pkt->size_bytes = len + net::kIpTcpHeaderBytes;
  pkt->tcp.seq = seq;
  pkt->tcp.payload = len;
  pkt->tcp.is_ack = false;
  pkt->tcp.echo_ts = static_cast<std::uint64_t>(sched_.now());
  pkt->tcp.fin = source_.exhausted() && (seq + len == snd_max_);
  bytes_sent_total_ += len;
  local_.send(std::move(pkt));
}

std::uint64_t TcpSender::sacked_bytes_in(std::uint64_t from,
                                         std::uint64_t to) const {
  std::uint64_t total = 0;
  for (const auto& [start, end] : sacked_) {
    if (end <= from) continue;
    if (start >= to) break;
    total += std::min(end, to) - std::max(start, from);
  }
  return total;
}

bool TcpSender::find_unsacked_gap(std::uint64_t from, std::uint64_t limit,
                                  std::uint64_t* gap_start,
                                  std::uint64_t* gap_len) const {
  std::uint64_t cursor = from;
  for (const auto& [start, end] : sacked_) {
    if (end <= cursor) continue;
    if (start >= limit) break;
    if (start > cursor) {
      *gap_start = cursor;
      *gap_len = start - cursor;
      return true;
    }
    cursor = end;
  }
  if (cursor < limit) {
    *gap_start = cursor;
    *gap_len = limit - cursor;
    return true;
  }
  return false;
}

double TcpSender::pipe_bytes() const {
  // Outstanding data minus SACKed bytes minus the presumed-lost region the
  // retransmission scan has not re-sent yet (bytes below rtx_next_ were just
  // retransmitted, so they count as in flight again).
  const std::uint64_t out = snd_nxt_ - snd_una_;
  const std::uint64_t sacked = sacked_bytes_in(snd_una_, snd_nxt_);
  const std::uint64_t scan_from = std::max(rtx_next_, snd_una_);
  std::uint64_t lost_unsent = 0;
  if (fack_ > scan_from) {
    lost_unsent =
        (fack_ - scan_from) - sacked_bytes_in(scan_from, fack_);
  }
  return static_cast<double>(out) - static_cast<double>(sacked) -
         static_cast<double>(lost_unsent);
}

void TcpSender::send_available() {
  const double wnd =
      std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes));

  if (sack_recovery_) {
    // SACK recovery: retransmit holes below the forward-most SACK first,
    // then new data, all under pipe-based accounting (RFC 6675 flavour).
    while (pipe_bytes() < wnd) {
      std::uint64_t gap_start = 0, gap_len = 0;
      if (find_unsacked_gap(std::max(rtx_next_, snd_una_), fack_, &gap_start,
                            &gap_len)) {
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(gap_len, mss()));
        emit_segment(gap_start, len);
        ++retransmits_;
        tele(telemetry::EventType::kTcpRetransmit, retransmits_);
        rtx_next_ = gap_start + len;
        continue;
      }
      const std::uint32_t len = source_.grab(mss());
      if (len == 0) break;
      snd_max_ += len;
      emit_segment(snd_nxt_, len);
      snd_nxt_ += len;
    }
  } else {
    while (static_cast<double>(flight()) < wnd) {
      std::uint32_t len = 0;
      if (snd_nxt_ < snd_max_) {
        // Resending previously sent bytes (go-back-N after an RTO).
        len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(mss(), snd_max_ - snd_nxt_));
        ++retransmits_;
        tele(telemetry::EventType::kTcpRetransmit, retransmits_);
      } else {
        len = source_.grab(mss());
        if (len == 0) break;
        snd_max_ += len;
      }
      emit_segment(snd_nxt_, len);
      snd_nxt_ += len;
    }
  }
  if (flight() > 0 && !rto_armed_) arm_rto();
}

void TcpSender::apply_sack(const net::TcpHeader& hdr) {
  for (int i = 0; i < hdr.sack_count; ++i) {
    std::uint64_t start = std::max(hdr.sack[static_cast<std::size_t>(i)].start,
                                   snd_una_);
    std::uint64_t end = hdr.sack[static_cast<std::size_t>(i)].end;
    if (end <= start) continue;
    fack_ = std::max(fack_, end);
    // Merge [start, end) into the scoreboard.
    auto it = sacked_.lower_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = prev;
      }
    }
    while (it != sacked_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = sacked_.erase(it);
    }
    sacked_[start] = end;
  }
}

void TcpSender::enter_sack_recovery() {
  sack_recovery_ = true;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0,
                       2.0 * static_cast<double>(mss()));
  cwnd_ = ssthresh_;
  // Monotone across epochs: a byte is retransmitted at most once between
  // RTOs (a lost retransmission is recovered by the timer, as in real TCP).
  rtx_next_ = std::max(rtx_next_, snd_una_);
  tele(telemetry::EventType::kTcpCwnd, std::bit_cast<std::uint64_t>(cwnd_));
  on_loss_event();
}

void TcpSender::arm_rto() {
  // Exponential backoff, capped at kMaxRto (RFC 6298 §5.5).
  const sim::TimeNs timeout =
      std::min(rto_ << std::min(backoff_, 12), kMaxRto);
  // Tail Loss Probe: before the first (non-backed-off) RTO of a flight,
  // schedule a probe at ~2 SRTT instead. A tail drop then triggers SACK
  // recovery in round-trip time rather than stalling a full minRTO.
  sim::TimeNs when = timeout;
  timer_is_tlp_ = false;
  if (!tlp_done_ && backoff_ == 0 && srtt_ > 0 && !sack_recovery_) {
    const sim::TimeNs pto = 2 * srtt_ + cfg_.rto_granularity();
    if (pto < timeout) {
      when = pto;
      timer_is_tlp_ = true;
    }
  }
  // The deadline is a ticket, so it holds the same place in the dispatch
  // order as a freshly scheduled timer would. A live event at or before the
  // deadline's time is kept: it fires early and re-homes itself onto the
  // deadline. One later than the deadline is cancelled.
  rto_deadline_ = sched_.reserve_at(sched_.now() + when);
  rto_armed_ = true;
  if (rto_event_ != sim::kInvalidEventId) {
    if (rto_event_time_ <= rto_deadline_.time) return;
    sched_.cancel(rto_event_);
  }
  schedule_rto_event();
}

void TcpSender::disarm_rto() {
  rto_armed_ = false;
  sched_.cancel(rto_event_);
  rto_event_ = sim::kInvalidEventId;
}

void TcpSender::schedule_rto_event() {
  rto_event_time_ = rto_deadline_.time;
  rto_event_ = sched_.schedule(rto_deadline_, [this] { on_rto_event(); });
}

void TcpSender::on_rto_event() {
  rto_event_ = sim::kInvalidEventId;
  if (!sched_.passed(rto_deadline_)) {
    schedule_rto_event();  // re-armed since: not the deadline yet
    return;
  }
  rto_armed_ = false;
  if (timer_is_tlp_) {
    on_tlp();
  } else {
    on_rto();
  }
}

void TcpSender::on_tlp() {
  if (flight() == 0) return;
  // Probe with the highest outstanding segment; its (S)ACK exposes any
  // earlier holes. No cwnd change — loss is not confirmed yet.
  tlp_done_ = true;
  const std::uint64_t len =
      std::min<std::uint64_t>(mss(), snd_nxt_ - snd_una_);
  emit_segment(snd_nxt_ - len, static_cast<std::uint32_t>(len));
  ++retransmits_;
  tele(telemetry::EventType::kTcpRetransmit, retransmits_);
  arm_rto();  // now arms the real RTO (tlp_done_ is set)
}

void TcpSender::update_rtt(sim::TimeNs sample) {
  if (sample <= 0) return;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::TimeNs err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp<sim::TimeNs>(
      srtt_ + std::max(cfg_.rto_granularity(), 4 * rttvar_), cfg_.min_rto,
      kMaxRto);
}

void TcpSender::ca_increase(std::uint64_t bytes_acked) {
  // Reno byte-counting: ~one MSS per window per RTT.
  cwnd_ += static_cast<double>(mss()) * static_cast<double>(bytes_acked) /
           std::max(cwnd_, 1.0);
}

void TcpSender::dctcp_on_ack(std::uint64_t bytes_acked, bool ece) {
  dctcp_acked_ += bytes_acked;
  if (ece) dctcp_marked_ += bytes_acked;
  if (snd_una_ < dctcp_window_end_) return;
  // One observation window (~RTT) completed: fold the marked fraction into
  // alpha and, if marks were seen, scale cwnd by (1 - alpha/2).
  if (dctcp_acked_ > 0) {
    const double frac = static_cast<double>(dctcp_marked_) /
                        static_cast<double>(dctcp_acked_);
    dctcp_alpha_ = (1 - kDctcpG) * dctcp_alpha_ + kDctcpG * frac;
    if (dctcp_marked_ > 0 && !sack_recovery_) {
      cwnd_ = std::max(cwnd_ * (1.0 - dctcp_alpha_ / 2.0),
                       2.0 * static_cast<double>(mss()));
      ssthresh_ = std::min(ssthresh_, cwnd_);
    }
  }
  dctcp_acked_ = 0;
  dctcp_marked_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void TcpSender::handle_ack(const net::TcpHeader& hdr, bool ecn_echo) {
  std::uint64_t ack = hdr.ack;
  const std::uint64_t echo_ts = hdr.echo_ts;
  if (ack > snd_max_) ack = snd_max_;
  apply_sack(hdr);

  if (ack > snd_una_) {
    const std::uint64_t bytes_acked = ack - snd_una_;
    if (cfg_.dctcp) dctcp_on_ack(bytes_acked, ecn_echo);
    snd_una_ = ack;
    // A late ACK for pre-RTO transmissions can overtake the go-back-N reset
    // point; flight() must never underflow.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    fack_ = std::max(fack_, snd_una_);
    // Prune the scoreboard below the cumulative ACK.
    while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
      sacked_.erase(sacked_.begin());
    }
    backoff_ = 0;
    tlp_done_ = false;  // new flight, new probe budget
    if (echo_ts != 0) {
      update_rtt(sched_.now() - static_cast<sim::TimeNs>(echo_ts));
    }

    if (sack_recovery_) {
      if (ack >= recover_) {
        sack_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        arm_rto();  // progress: keep the timer fresh, stay in recovery
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(bytes_acked);  // slow start
      if (cwnd_ > ssthresh_) cwnd_ = ssthresh_;
    } else {
      ca_increase(bytes_acked);
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes));

    // Reset or disarm the retransmission timer.
    if (flight() > 0) {
      arm_rto();
    } else {
      disarm_rto();
    }
  }

  // FACK loss detection: data SACKed more than 3 segments past the
  // cumulative ACK implies the hole at snd_una is lost. The second clause is
  // early retransmit (RFC 5827 flavour): with a short tail, everything
  // outstanding above the hole being SACKed is already conclusive.
  const auto dup_bytes =
      static_cast<std::uint64_t>(cfg_.dupack_segments) * mss();
  if (!sack_recovery_ && flight() > 0 && fack_ > snd_una_ &&
      (fack_ - snd_una_ > dup_bytes ||
       (fack_ == snd_nxt_ && sacked_bytes_in(snd_una_, snd_nxt_) > 0))) {
    enter_sack_recovery();
  }

  send_available();
  maybe_finish();
  CONGA_INVARIANT(check_tcp_window(tcp_node_name(flow_), sched_.now(),
                                   snd_una_, snd_nxt_, snd_max_, cwnd_));
}

void TcpSender::on_rto() {
  if (flight() == 0) return;  // spurious (e.g. raced with the final ACK)
  ++timeouts_;
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0,
                       2.0 * static_cast<double>(mss()));
  cwnd_ = static_cast<double>(mss());
  tele(telemetry::EventType::kTcpRto, timeouts_);
  tele(telemetry::EventType::kTcpCwnd, std::bit_cast<std::uint64_t>(cwnd_));
  snd_nxt_ = snd_una_;  // go-back-N
  sack_recovery_ = false;
  sacked_.clear();  // conservative: rebuild the scoreboard from fresh ACKs
  fack_ = snd_una_;
  rtx_next_ = snd_una_;
  ++backoff_;
  on_loss_event();
  send_available();
  CONGA_INVARIANT(check_tcp_window(tcp_node_name(flow_), sched_.now(),
                                   snd_una_, snd_nxt_, snd_max_, cwnd_));
}

void TcpSender::on_packet(net::PacketPtr pkt) {
  if (done_ || !pkt->tcp.is_ack) return;
  handle_ack(pkt->tcp, pkt->ecn_echo);
}

void TcpSender::maybe_finish() {
  if (done_ || !source_.exhausted() || snd_una_ != snd_max_ || !started_) {
    return;
  }
  done_ = true;
  disarm_rto();
  tele(telemetry::EventType::kFlowFinish, snd_max_);
  if (on_done_) on_done_();
}

}  // namespace conga::tcp
