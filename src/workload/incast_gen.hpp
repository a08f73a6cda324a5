// Incast micro-benchmark (paper §5.3, Fig 13).
//
// A client repeatedly requests a file of `total_bytes` striped across N
// servers; all servers answer with total_bytes/N simultaneously (the
// synchronized fan-in that collapses TCP throughput). The metric is the
// client's effective goodput as a percentage of its access-link rate —
// Fig 13's "Throughput (%)" — measured over `rounds` back-to-back requests.
//
// The transport comes in via the FlowFactory, so the same harness produces
// the CONGA+TCP and MPTCP curves.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "tcp/flow.hpp"

namespace conga::workload {

struct IncastConfig {
  net::HostId client = 0;
  std::vector<net::HostId> servers;
  std::uint64_t total_bytes = 10'000'000;  ///< 10 MB striped response
  int rounds = 10;
  std::uint64_t seed = 77;
};

class IncastGenerator {
 public:
  IncastGenerator(net::Fabric& fabric, tcp::FlowFactory factory,
                  const IncastConfig& cfg);

  void start();

  bool finished() const { return rounds_done_ == cfg_.rounds; }
  int rounds_done() const { return rounds_done_; }

  /// Goodput as a fraction of the client access-link rate, over the time
  /// from the first request to the last round's completion.
  double goodput_fraction() const;
  sim::TimeNs elapsed() const { return last_end_ - first_start_; }

 private:
  void start_round();
  void on_flow_complete();

  net::Fabric& fabric_;
  tcp::FlowFactory factory_;
  IncastConfig cfg_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<tcp::FlowHandle>> round_flows_;
  int pending_ = 0;
  int rounds_done_ = 0;
  std::uint64_t flow_seq_ = 0;
  sim::TimeNs first_start_ = -1;
  sim::TimeNs last_end_ = -1;
};

}  // namespace conga::workload
