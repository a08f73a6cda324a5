#include "lb_ext/presto_lb.hpp"

#include "telemetry/telemetry.hpp"

namespace conga::lb_ext {

namespace {
// Decorrelates the starting-uplink choice from the table index, which uses
// the raw flow hash.
constexpr std::uint64_t kStartSalt = 0x5ca1ab1e0ddba11ULL;
}  // namespace

PrestoLb::PrestoLb(net::LeafSwitch& leaf) : leaf_(leaf), cells_(kNumEntries) {}

int PrestoLb::select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                            sim::TimeNs now) {
  int viable[16];
  const int n = leaf_.viable_uplinks(dst_leaf, viable);
  const std::uint64_t h = pkt.wire_key().hash();
  Cell& c = cells_[h % kNumEntries];
  if (!leaf_.usable_uplink(c.port, dst_leaf)) {
    // Fresh cell: flows start at a hash-chosen offset so simultaneous flows
    // don't march the same round-robin sequence in lockstep.
    c.port = viable[net::mix64(h ^ kStartSalt) % static_cast<std::uint64_t>(n)];
    c.bytes = 0;
  }
  const int out = c.port;
  c.bytes += pkt.size_bytes;
  if (c.bytes >= kFlowcellBytes) {
    // The cell is full: the *next* packet starts a new cell on the next
    // viable uplink, cyclically. This packet still rides the old port.
    int pos = 0;
    for (int i = 0; i < n; ++i) {
      if (viable[i] == out) {
        pos = i;
        break;
      }
    }
    c.port = viable[(pos + 1) % n];
    c.bytes = 0;
    ++rotations_;
    telemetry::emit(tele_, telemetry::EventType::kFlowcellRotate, tele_comp_,
                    now, h, static_cast<std::uint64_t>(c.port));
  }
  return out;
}

void PrestoLb::attach_telemetry(telemetry::TraceSink* sink) {
  tele_ = sink;
  if (sink != nullptr) {
    tele_comp_ = sink->intern_component(leaf_.name() + "/flowcells");
  }
}

}  // namespace conga::lb_ext
