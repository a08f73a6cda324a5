// Presto-style flowcell spraying (He et al., SIGCOMM'15). The sender-side
// half: each flow is chopped into fixed-size flowcells (64 KB, one TSO
// burst) and successive cells are round-robined over the viable uplinks —
// congestion-oblivious, near-perfect coarse balancing for flows longer
// than one cell. The receiver-side half Presto implements in GRO is stood
// in for by the reordering ledger (tcp/reorder_*): the simulator's sinks
// already resequence, so what the ledger records is the reordering Presto's
// shim would have had to absorb.
//
// Divergence (DESIGN.md §12): real Presto source-routes each cell over a
// spine path chosen by the edge; here the leaf picks the uplink and the
// spine stays ECMP, matching how every other policy in this repo divides
// leaf and spine roles.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/leaf_switch.hpp"

namespace conga::lb_ext {

class PrestoLb final : public lb::LoadBalancer {
 public:
  static constexpr std::uint64_t kFlowcellBytes = 64 * 1024;  ///< one TSO burst
  static constexpr std::size_t kNumEntries = 64 * 1024;  ///< flow-state slots

  explicit PrestoLb(net::LeafSwitch& leaf);

  int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                    sim::TimeNs now) override;
  void attach_telemetry(telemetry::TraceSink* sink) override;
  std::string name() const override { return "Presto"; }

  std::uint64_t rotations() const { return rotations_; }

 private:
  /// Per-flow-hash cell state. Like the flowlet table, collisions merge
  /// flows onto one cell counter (they just rotate a little early).
  struct Cell {
    std::int32_t port = -1;
    std::uint64_t bytes = 0;
  };

  net::LeafSwitch& leaf_;
  std::vector<Cell> cells_;
  std::uint64_t rotations_ = 0;
  telemetry::TraceSink* tele_ = nullptr;
  std::uint32_t tele_comp_ = 0;
};

}  // namespace conga::lb_ext
