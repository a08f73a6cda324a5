// Packet model.
//
// A single packet struct serves the whole stack: the TCP header fields, and
// the VXLAN-style overlay header CONGA piggybacks on (§3.1 of the paper:
// LBTag 4b, CE 3b, FB_LBTag 4b, FB_Metric 3b). Field widths larger than the
// ASIC's are used in memory, but values are always masked to the paper's
// widths by the CONGA logic so quantization behaviour is faithful.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/flow_key.hpp"
#include "sim/time.hpp"

namespace conga::net {

/// One SACK block: received bytes [start, end).
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// TCP header state carried by every packet. Fields are ordered widest
/// first, so the struct has one 5-byte tail hole instead of two padding holes.
struct TcpHeader {
  std::uint64_t seq = 0;        ///< first payload byte (data) / echo (ack)
  std::uint64_t ack = 0;        ///< cumulative ack (valid if is_ack)
  std::uint64_t echo_ts = 0;    ///< sender timestamp echoed by ACKs (RTT est.)
  std::uint32_t payload = 0;    ///< payload bytes carried
  std::uint32_t subflow = 0;    ///< MPTCP subflow index (0 for plain TCP)
  bool is_ack = false;          ///< pure ACK traveling receiver -> sender
  bool fin = false;             ///< last segment of the flow
  std::uint8_t sack_count = 0;  ///< valid entries in `sack` (ACKs only)
  std::array<SackBlock, 3> sack{};  ///< out-of-order blocks held (RFC 2018)
};

/// VXLAN-style overlay header with CONGA's fields (§3.1).
struct OverlayHeader {
  bool valid = false;           ///< packet is encapsulated (inter-leaf)
  LeafId src_leaf = -1;
  LeafId dst_leaf = -1;
  std::uint8_t lbtag = 0;       ///< source-leaf uplink port (4 bits)
  std::uint8_t ce = 0;          ///< max path congestion so far (Q bits)
  bool fb_valid = false;        ///< feedback pair present
  std::uint8_t fb_lbtag = 0;    ///< which uplink the feedback refers to
  std::uint8_t fb_metric = 0;   ///< its congestion metric
};

/// In-fabric probe-plane header (src/probe/). `kind` holds a
/// probe::ProbeKind value and is 0 on every data packet. Probes ride the
/// overlay exactly like data, so the links' CE marking folds the max DRE
/// utilization along the path into overlay.ce with no extra mechanism.
struct ProbeHeader {
  std::uint8_t kind = 0;           ///< 0 = not a probe (probe::ProbeKind)
  std::uint8_t origin_uplink = 0;  ///< origin leaf's uplink under measurement
  std::uint8_t util = 0;           ///< reply: max path utilization observed
  LeafId origin_leaf = -1;         ///< leaf that launched the round-trip
};

/// Wire overheads, in bytes.
constexpr std::uint32_t kIpTcpHeaderBytes = 40;    // IP(20) + TCP(20)
constexpr std::uint32_t kOverlayHeaderBytes = 50;  // outer Eth+IP+UDP+VXLAN
constexpr std::uint32_t kAckBytes = kIpTcpHeaderBytes + 24;  // pure ACK frame

struct Packet {
  std::uint64_t id = 0;          ///< unique within the allocating thread
  FlowKey flow;                  ///< data-direction 5-tuple
  std::uint32_t size_bytes = 0;  ///< total bytes on the wire (incl. headers)
  /// Next packet in the DropTailQueue or on the Link wire holding this one
  /// (null at the tail and elsewhere); beside size_bytes, so a dequeue reads
  /// one line.
  Packet* queue_next = nullptr;
  sim::TimeNs enqueued_at = 0;   ///< set by queues, for latency accounting
  bool ecn_ce = false;           ///< ECN Congestion-Experienced codepoint
  bool ecn_echo = false;         ///< ECE on ACKs (echoed per packet, DCTCP)
  bool corrupted = false;        ///< gray-failure bit error; dropped at rx
  TcpHeader tcp;
  OverlayHeader overlay;
  ProbeHeader probe;

  /// The 5-tuple as seen on the wire for this packet's direction of travel:
  /// data packets travel along `flow`, ACKs along the reversed key. Hashing
  /// mechanisms (ECMP, flowlets) must use this so that the forward and
  /// reverse streams of one connection are balanced independently, exactly
  /// as a real switch hashing the actual header would.
  FlowKey wire_key() const { return tcp.is_ack ? reversed(flow) : flow; }
};

// Every hop touches the packet and the pool holds thousands of them: the
// queue link took TcpHeader's padding rather than growing the struct.
static_assert(sizeof(Packet) <= 168, "Packet grew past 168 bytes");

/// Returns a packet to the calling thread's free-list pool (see PacketPool).
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Creates a packet with an id unique within the allocating thread (the
/// thread's make_packet() count, so ids from two threads may collide; no
/// simulation compares ids across threads). Steady-state traffic is
/// allocation-free: packets come from a thread-local free-list pool that
/// grows in chunks and is refilled by PacketDeleter, so after warmup
/// make_packet() is a pop + field reset. Each simulation runs on one thread
/// (workers of the parallel experiment runner included), so packets return
/// to the pool they came from; a packet must not outlive the thread that
/// allocated it.
PacketPtr make_packet();

/// Introspection for the calling thread's packet pool (perf baselines and
/// the allocation-freedom microbenchmark assert against these).
struct PacketPoolStats {
  std::uint64_t acquired = 0;     ///< make_packet() calls on this thread
  std::uint64_t released = 0;     ///< packets returned to this thread's pool
  std::uint64_t chunk_allocs = 0; ///< times the pool had to grow (malloc)
  std::size_t free_size = 0;      ///< packets currently in the free list
};
PacketPoolStats packet_pool_stats();

}  // namespace conga::net
