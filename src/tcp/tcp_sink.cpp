#include "tcp/tcp_sink.hpp"

#include <utility>

namespace conga::tcp {

TcpSink::TcpSink(net::Host& local, const net::FlowKey& flow,
                 std::function<void(std::uint64_t)> on_data)
    : local_(local), flow_(flow), on_data_(std::move(on_data)) {}

TcpSink::~TcpSink() {
  if (started_) local_.unregister_flow(flow_);
}

void TcpSink::start() {
  if (started_) return;
  started_ = true;
  local_.register_flow(flow_,
                       [this](net::PacketPtr pkt) { on_packet(std::move(pkt)); });
}

void TcpSink::send_ack(std::uint64_t echo_ts, std::uint64_t trigger_seq,
                       bool ecn_ce) {
  net::PacketPtr ack = net::make_packet();
  ack->flow = flow_;  // data-direction key; is_ack marks the reverse travel
  ack->size_bytes = net::kAckBytes;
  ack->tcp.is_ack = true;
  ack->tcp.ack = rcv_nxt_;
  ack->tcp.echo_ts = echo_ts;
  ack->ecn_echo = ecn_ce;  // per-packet echo, as DCTCP requires
  if (!ooo_.empty()) {
    // RFC 2018: the first block MUST contain the most recently received
    // segment — that is how the sender learns every block across a dupack
    // stream. Follow with the next blocks in sequence order (wrapping).
    auto first = ooo_.upper_bound(trigger_seq);
    if (first != ooo_.begin()) {
      auto prev = std::prev(first);
      if (prev->second >= trigger_seq) first = prev;
    }
    if (first == ooo_.end()) first = ooo_.begin();
    auto it = first;
    do {
      ack->tcp.sack[ack->tcp.sack_count++] =
          net::SackBlock{it->first, it->second};
      ++it;
      if (it == ooo_.end()) it = ooo_.begin();
    } while (ack->tcp.sack_count < 3 && it != first);
  }
  local_.send(std::move(ack));
}

void TcpSink::on_packet(net::PacketPtr pkt) {
  if (pkt->tcp.is_ack) return;  // not for us
  const std::uint64_t seq = pkt->tcp.seq;
  const std::uint64_t end = seq + pkt->tcp.payload;
  const std::uint64_t old_nxt = rcv_nxt_;

  if (end <= rcv_nxt_) {
    // Entirely duplicate data; still ACK so the sender can make progress.
    send_ack(pkt->tcp.echo_ts, seq, pkt->ecn_ce);
    return;
  }

  if (seq <= rcv_nxt_) {
    rcv_nxt_ = end;
    // Pull any now-contiguous out-of-order segments.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, it->second);
      it = ooo_.erase(it);
    }
  } else {
    // Out-of-order: buffer (coalescing is unnecessary — disjoint by MSS
    // boundaries in practice; overlaps just resolve via the max above).
    ooo_.emplace(seq, end);
    ++ooo_segments_;
    const std::uint64_t dist = seq - rcv_nxt_;  // seq > rcv_nxt_ here
    if (dist > max_reorder_bytes_) max_reorder_bytes_ = dist;
  }

  send_ack(pkt->tcp.echo_ts, seq, pkt->ecn_ce);
  if (rcv_nxt_ > old_nxt && on_data_) on_data_(rcv_nxt_ - old_nxt);
}

}  // namespace conga::tcp
