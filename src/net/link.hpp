// Unidirectional link: egress queue + serialization + propagation + DRE.
//
// The link models an output-queued switch port. A packet handed to send() is
// enqueued; when the wire is free the head packet begins transmission, at
// which point the link's DRE is charged and — on fabric links — the packet's
// CE field is raised to the link's quantized congestion metric (paper §3.3
// step 2: "its CE field is updated if the link's congestion metric is larger
// than the current value in the packet").
//
// Fault hooks (driven by fault::FaultInjector; all default to "off" and cost
// nothing when unused):
//  * set_rate_scale()   — capacity degradation: serialization slows down and
//    the DRE renormalizes against the shrunken capacity;
//  * set_gray_failure() — per-packet Bernoulli loss and corruption from a
//    dedicated keyed RNG stream. Losses vanish silently at admission;
//    corrupted packets occupy the wire (charge the DRE, pick up CE marks)
//    and are discarded at the far end, like a frame failing its CRC;
//  * set_ce_suppressed() — stale-feedback injection: the link stops raising
//    the CONGA CE field, so downstream leaves see frozen congestion info.
//
// Packets on the wire form a FIFO through Packet::queue_next (a packet is in
// the egress queue or on the wire, never both). Serialization is sequential
// and propagation constant, so they arrive in the order they started: the
// link is its own scheduler target, and an arrival event only says "deliver
// the wire head".
//
// Every drop is accounted by cause (admin-down / gray / corrupt here;
// queue overflow in QueueStats), and the link maintains a packet
// conservation identity the chaos auditor checks after drain:
//   offered == admin_down + gray + queue_drops + queue_resident
//              + in_flight + corrupt + delivered.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/dre.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::net {

struct LinkConfig {
  double rate_bps = 10e9;
  sim::TimeNs propagation_delay = sim::microseconds(1);
  std::uint64_t queue_capacity_bytes = 2'000'000;
  /// Queue depth above which packets get ECN CE marks (0 = ECN off). DCTCP's
  /// K parameter; independent of CONGA's CE *path-congestion* field.
  std::uint64_t ecn_threshold_bytes = 0;
  /// Optional switch-level shared buffer this port draws from.
  SharedBufferPool* shared_pool = nullptr;
  bool marks_ce = false;  ///< fabric links update CE; edge links do not
  /// CE aggregation along the path: false = max of link metrics (the paper's
  /// choice, emphasizing the bottleneck), true = clamped sum (§7 "Other path
  /// metrics", the 4/3-PoA alternative that needs wider header fields).
  bool ce_sum = false;
  core::DreConfig dre;
};

/// Link-level drops split by cause. Queue-overflow drops are counted by the
/// egress queue (QueueStats::dropped_*); together the two structs name the
/// cause of every packet that entered send() and never reached the far end.
struct LinkDropStats {
  std::uint64_t admin_down_pkts = 0;   ///< handed to a down link
  std::uint64_t admin_down_bytes = 0;
  std::uint64_t gray_pkts = 0;         ///< gray-failure Bernoulli loss
  std::uint64_t gray_bytes = 0;
  std::uint64_t corrupt_pkts = 0;      ///< transmitted, discarded at rx
  std::uint64_t corrupt_bytes = 0;
};

/// Cache-line aligned, so the per-hop state at the front of the object
/// (see the members) starts a line.
class alignas(64) Link final : private sim::Scheduler::Target {
 public:
  Link(sim::Scheduler& sched, std::string name, const LinkConfig& cfg);
  /// Returns any packets still on the wire to the pool.
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Connects the far end. Must be called before any send().
  void connect_to(Node* dst, int dst_port);

  /// Hands a packet to the link for transmission (possibly dropping it).
  void send(PacketPtr pkt);

  /// Administratively disables the link: packets handed to a down link are
  /// dropped. (Used to model failures discovered by the routing layer; the
  /// topology normally removes failed links from forwarding tables instead.)
  /// Actual state changes emit kLinkUp/kLinkDown telemetry events.
  void set_up(bool up);
  bool is_up() const { return up_; }

  /// Scales the link to `scale` of its configured rate (capacity
  /// degradation, e.g. a LAG that lost members). Serialization slows down
  /// and the DRE renormalizes so utilization is measured against the
  /// *current* capacity. scale == 1 restores nominal. Emits kLinkDegraded.
  void set_rate_scale(double scale);
  double rate_scale() const { return rate_scale_; }

  /// Arms per-packet Bernoulli gray failure: each packet handed to send() is
  /// independently dropped with `drop_prob`, else corrupted with
  /// `corrupt_prob`. Draws come from a dedicated Rng seeded with `seed`
  /// (callers derive it via Rng::stream_seed so it is reproducible and
  /// independent of traffic). Passing both probabilities 0 disarms.
  void set_gray_failure(double drop_prob, double corrupt_prob,
                        std::uint64_t seed);
  void clear_gray_failure() { gray_drop_prob_ = gray_corrupt_prob_ = 0.0; }
  bool gray_failure_active() const {
    return gray_drop_prob_ > 0.0 || gray_corrupt_prob_ > 0.0;
  }

  /// Stale-feedback injection: while suppressed, the link no longer raises
  /// the CONGA CE field of packets it transmits, freezing the congestion
  /// information downstream leaves learn through this uplink.
  void set_ce_suppressed(bool suppressed) { ce_suppressed_ = suppressed; }
  bool ce_suppressed() const { return ce_suppressed_; }

  /// Registers this link (by name) with `sink` and routes the link's own,
  /// its queue's, and its DRE's events there.
  void attach_telemetry(telemetry::TraceSink* sink);

  double rate_bps() const { return cfg_.rate_bps; }
  /// Current rate after degradation (== rate_bps() when unscaled).
  double effective_rate_bps() const { return cfg_.rate_bps * rate_scale_; }
  const std::string& name() const { return name_; }
  const DropTailQueue& queue() const { return queue_; }
  core::Dre& dre() { return dre_; }
  const core::Dre& dre() const { return dre_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

  const LinkDropStats& drop_stats() const { return drop_stats_; }
  std::uint64_t packets_offered() const { return packets_offered_; }
  std::uint64_t packets_in_flight() const { return in_flight_pkts_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }

  /// Packet conservation: every packet offered to this link is accounted to
  /// exactly one fate. After a full drain (no packets queued or on the wire)
  /// the resident and in-flight terms are zero and the identity degenerates
  /// to offered == drops-by-cause + delivered.
  bool conserves_packets() const {
    return packets_offered_ ==
           drop_stats_.admin_down_pkts + drop_stats_.gray_pkts +
               queue_.stats().dropped_pkts + queue_.packets() +
               in_flight_pkts_ + drop_stats_.corrupt_pkts +
               packets_delivered_;
  }

  /// Time to clock `bytes` onto the wire at the current (possibly degraded)
  /// rate.
  sim::TimeNs serialization_delay(std::uint32_t bytes) const {
    return static_cast<sim::TimeNs>(static_cast<double>(bytes) * 8.0 /
                                    (cfg_.rate_bps * rate_scale_) * 1e9);
  }

 private:
  /// Typed-event tags: the wire head reaches the far end; the wire frees up
  /// with packets queued.
  enum : std::uint32_t { kArrive = 0, kDrain = 1 };

  void on_event(std::uint32_t tag) override;
  void start_transmission();
  /// Schedules the event that starts the next queued packet at busy_until_.
  void schedule_drain();

  // Per-hop state comes first: an arrival reads only the first cache line
  // of the link (vptr to dst_port_), a transmission the next few. Names and
  // the cold fault state follow. The 2.5 KB gray-failure RNG lives on the
  // heap, made only for a link under a gray fault.
  sim::Scheduler& sched_;
  Node* dst_ = nullptr;
  /// Packets transmitted and not yet arrived, oldest first.
  Packet* wire_head_ = nullptr;
  Packet* wire_tail_ = nullptr;
  std::uint64_t in_flight_pkts_ = 0;
  std::uint64_t packets_delivered_ = 0;
  sim::Scheduler::TargetId target_;
  int dst_port_ = -1;
  /// Position at which the wire frees up after the packet last started. A
  /// drain event sits on it exactly while packets are queued behind it.
  sim::Ticket busy_until_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_offered_ = 0;
  double rate_scale_ = 1.0;
  double gray_drop_prob_ = 0.0;
  double gray_corrupt_prob_ = 0.0;
  bool up_ = true;
  bool ce_suppressed_ = false;
  LinkConfig cfg_;
  DropTailQueue queue_;
  core::Dre dre_;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
  LinkDropStats drop_stats_;
  std::string name_;
  /// Set by set_gray_failure(); null on a link that was never gray.
  std::unique_ptr<sim::Rng> gray_rng_;
};

// A fabric holds hundreds of links; keep the RNG (or anything like it) out.
static_assert(sizeof(Link) <= 1024);

}  // namespace conga::net
