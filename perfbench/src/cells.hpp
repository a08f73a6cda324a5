// One experiment cell, run through the simulator's public entry points with
// the benchmark's instrumentation around it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "instrument.hpp"
#include "net/topology.hpp"
#include "tcp/mptcp_connection.hpp"
#include "workload/incast_gen.hpp"

namespace perfbench {

/// A closed-loop CONGA incast cell (Fig 13), driven by
/// workload::IncastGenerator.
struct IncastSpec {
  net::TopologyConfig topo;
  std::uint64_t fabric_seed = 1;
  workload::IncastConfig incast;
  tcp::MptcpConfig mptcp;
};

struct CellSpec {
  std::string name;
  bool is_incast = false;
  campaign::ExperimentSpec fct;  ///< when !is_incast
  IncastSpec incast;             ///< when is_incast
};

/// The cell's description as printed with its results: the canonical
/// ExperimentSpec JSON for FCT cells, an equivalent document for incast.
std::string describe(const CellSpec& cell);

struct CellResult {
  // Host-time phases, seconds. Set-up is the fabric build, the policy
  // install and the generators' construction and start; the run phase runs
  // from the first flow to the cell's return, summary and teardown included.
  double build_s = 0;
  double install_s = 0;
  double gen_setup_s = 0;
  double run_s = 0;
  double hop_window_s = 0;  ///< first flow to the link-counter read
  double total_s = 0;
  double setup_s() const { return build_s + install_s + gen_setup_s; }

  // Behaviour.
  bool finished = false;     ///< drained (FCT) / every round done (incast)
  std::uint64_t digest = 0;  ///< FCT digest, or the incast behaviour digest
  double goodput = 0;        ///< incast only: fraction of the access link
  std::uint64_t flows_started = 0;
  std::uint64_t flows_measured = 0;
  NetCounts net;
  bool net_read = false;
  std::uint64_t pool_chunk_allocs = 0;

  // Traced cells only.
  bool traced = false;
  double summary_s = 0;      ///< last dispatched event to the cell's return
  std::int64_t flow_build_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t hop_window_events = 0;  ///< events up to the counter read
  std::size_t pending_peak = 0;
  LbStats lb;
  TraceCounts counts;
};

/// Runs one cell on the calling thread; a traced cell appends its spans to
/// `spans` when given. Throws std::runtime_error when the spec does not
/// expand.
CellResult run_cell(const CellSpec& cell, bool traced,
                    std::vector<Span>* spans = nullptr);

}  // namespace perfbench
