// Flowlet Table (paper §3.4).
//
// A fixed-size table indexed by a hash of the packet's 5-tuple. Each entry
// holds only {port, valid, age} — no flow identifier — so, exactly as in the
// ASIC, hash collisions silently merge flows onto one entry (paper Remark 1:
// collisions merely forgo some load-balancing opportunities).
//
// Two expiry modes:
//  * kTimestamp — an entry expires exactly Tfl after its last packet
//    (idealised behaviour, the default);
//  * kAgeBit — reproduces the hardware's single age bit checked by a periodic
//    timer: detects gaps between Tfl and 2*Tfl. Modelled lazily from the last
//    packet timestamp (an entry is expired at `now` iff a timer tick has
//    passed that found it untouched for a full period), which is equivalent
//    to the bit-and-timer mechanism without per-entry scan events.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/flow_key.hpp"
#include "sim/time.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::core {

enum class FlowletExpiry { kTimestamp, kAgeBit };

struct FlowletTableConfig {
  std::size_t num_entries = 64 * 1024;                ///< 64K in the ASIC
  sim::TimeNs gap = sim::microseconds(500);           ///< Tfl
  FlowletExpiry expiry = FlowletExpiry::kTimestamp;
};

class FlowletTable {
 public:
  explicit FlowletTable(const FlowletTableConfig& cfg);

  /// Looks up the entry for `key` at time `now`.
  /// Returns the cached uplink port if the flowlet is still active (and
  /// refreshes its liveness), or -1 if a new flowlet starts.
  int lookup(const net::FlowKey& key, sim::TimeNs now);

  /// Records the decision for a new flowlet (marks the entry valid).
  void install(const net::FlowKey& key, int port, sim::TimeNs now);

  /// The port stored in the (possibly expired) entry — the paper's tie-break
  /// prefers "the port cached in the (invalid) entry", i.e. a flow only moves
  /// when a strictly better uplink exists. Returns -1 if never set.
  int last_port(const net::FlowKey& key) const;

  /// Number of currently active flowlets (O(n); for tests/inspection).
  std::size_t active_flowlets(sim::TimeNs now) const;

  std::uint64_t new_flowlets() const { return new_flowlets_; }
  const FlowletTableConfig& config() const { return cfg_; }

  /// Names this table in invariant-violation reports (e.g. the owning leaf);
  /// optional, defaults to "flowlet_table".
  void set_label(std::string label) { label_ = std::move(label); }

  /// Routes create/expire/path-change events to `sink` under component
  /// `comp` (normally "<leaf>/flowlets"). nullptr detaches.
  void set_telemetry(telemetry::TraceSink* sink, std::uint32_t comp) {
    tele_ = sink;
    tele_comp_ = comp;
  }

 private:
  struct Entry {
    std::int32_t port = -1;
    bool valid = false;
    sim::TimeNs last_seen = 0;
  };

  bool expired(const Entry& e, sim::TimeNs now) const;
  std::size_t index(const net::FlowKey& key) const;

  FlowletTableConfig cfg_;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
  std::string label_ = "flowlet_table";
  std::vector<Entry> entries_;
  std::uint64_t new_flowlets_ = 0;
};

}  // namespace conga::core
