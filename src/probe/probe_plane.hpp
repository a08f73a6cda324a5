// In-fabric probe plane (HULA-flavored; cf. Katta et al., SOSR'16).
//
// Each leaf that runs a probe-based policy owns a ProbeAgent. Periodically
// the agent launches one probe *request* per (destination leaf, viable
// uplink); the request is encapsulated like data, so the links it crosses
// fold their DRE utilization into the overlay CE field exactly as they do
// for CONGA — the probe reads max path utilization with no new dataplane
// mechanism. The destination leaf's agent answers with a *reply* carrying
// that measurement back, and the origin folds it into a per-(destination
// leaf, uplink) best-path table with aging. Probes are real packets on real
// links: they queue, serialize, and can be dropped or gray-failed, so probe
// overhead and probe loss are first-class simulation effects.
//
// Divergences from HULA proper (documented in DESIGN.md §12): HULA floods
// one-way probes that switches replicate and aggregate hop by hop; here the
// leaf echoes a request/reply round-trip per uplink instead, which
// distance-vector-lite covers the 2-tier and pod fabrics of this repo
// (spines stay stateless). The table keys on the origin uplink, not a path
// id, so parallel spine downlinks are sampled across rounds by varying the
// probe's wire identity.
#pragma once

#include <cstdint>
#include <vector>

#include "net/leaf_switch.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::probe {

/// Values of net::ProbeHeader::kind. kNone marks every data packet.
enum class ProbeKind : std::uint8_t { kNone = 0, kRequest = 1, kReply = 2 };

/// One probe round per period; the first round goes out one period after
/// ProbeAgent::start().
constexpr sim::TimeNs kProbePeriod = sim::microseconds(50);
/// Rounds stop after this, bounding Scheduler::run() with a probe plane
/// installed; every experiment window in the repo ends well before.
constexpr sim::TimeNs kProbeHorizon = sim::seconds(10);
/// A table entry untouched for this long is stale — treated as unknown, so a
/// path whose probes die (gray failure, partition) stops attracting flowlets
/// even though no one withdrew it.
constexpr sim::TimeNs kProbeAgeAfter = sim::microseconds(500);

/// Wire size of a probe request or reply before encapsulation.
constexpr std::uint32_t kProbeBytes = 64;

/// Per-(destination leaf, uplink) path utilization learned from probe
/// replies. kUnknown orders never-seen and stale paths after any measured
/// one, so known-good paths win until the table warms up or re-converges.
class PathTable {
 public:
  static constexpr std::uint8_t kUnknown = 0xff;

  PathTable(int num_leaves, int num_uplinks);

  void update(net::LeafId dst, int uplink, std::uint8_t util,
              sim::TimeNs now);

  /// The learned utilization, or kUnknown when never updated or stale.
  std::uint8_t metric(net::LeafId dst, int uplink, sim::TimeNs now) const;

  /// Time of the last update for (dst, uplink); -1 if never updated.
  sim::TimeNs updated_at(net::LeafId dst, int uplink) const;

  std::uint64_t updates() const { return updates_; }

 private:
  struct Entry {
    std::uint8_t util = 0;
    sim::TimeNs at = -1;
  };

  std::size_t index(net::LeafId dst, int uplink) const {
    return static_cast<std::size_t>(dst) * num_uplinks_ +
           static_cast<std::size_t>(uplink);
  }

  std::size_t num_uplinks_;
  std::vector<Entry> entries_;
  std::uint64_t updates_ = 0;
};

/// One leaf's half of the probe plane: the periodic request fan-out, the
/// reply echo, and the PathTable fed by returning replies. Owned by the
/// policy that uses it (lb_ext::HulaLb), so fabrics running other policies
/// allocate nothing and schedule nothing.
class ProbeAgent {
 public:
  ProbeAgent(net::LeafSwitch& leaf, int num_leaves);
  ~ProbeAgent();

  ProbeAgent(const ProbeAgent&) = delete;
  ProbeAgent& operator=(const ProbeAgent&) = delete;

  /// Schedules the first probe round (idempotent).
  void start();

  /// Consumes a probe packet addressed to this leaf: answers requests,
  /// folds replies into the table.
  void on_probe_packet(net::PacketPtr pkt, sim::TimeNs now);

  const PathTable& table() const { return table_; }

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t replies_sent() const { return replies_sent_; }
  std::uint64_t replies_received() const { return replies_received_; }

  /// Routes probe events to `sink` under component "<leaf>/probe".
  void attach_telemetry(telemetry::TraceSink* sink);

 private:
  void tick();
  void send_request(net::LeafId dst, int uplink, sim::TimeNs now);
  void send_reply(const net::Packet& req, sim::TimeNs now);

  net::LeafSwitch& leaf_;
  int num_leaves_;
  PathTable table_;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint32_t round_ = 0;     ///< varies the request wire identity
  std::uint32_t reply_rr_ = 0;  ///< rotates the reply's return uplink
  bool started_ = false;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_sent_ = 0;
  std::uint64_t replies_received_ = 0;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
};

}  // namespace conga::probe
