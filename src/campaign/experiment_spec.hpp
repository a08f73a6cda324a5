// Declarative experiment cell specification — the campaign service's unit of
// caching.
//
// workload::ExperimentConfig holds function-valued members (the transport
// factory, the LB factory, the fabric hook), so it cannot be hashed or
// stored. ExperimentSpec is its declarative mirror: every axis the sweeps
// vary, expressed as plain data — the policy by its registry name, the
// distribution by name, the topology as the (already declarative)
// TopologyConfig, faults as a named profile plus seed. A spec expands to an
// ExperimentConfig via the policy/distribution registries, and serializes to
// *canonical JSON*: one fixed field order, shortest-round-trip doubles, no
// whitespace — the byte sequence the content-addressed store keys on. Every
// document here is written and strictly read from one field table
// (campaign/codec.hpp): parse(canonical_json(s)) == s, any member order
// canonicalizes to the same bytes, and absent fields keep their defaults.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/json.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"
#include "stats/summary.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/experiment.hpp"

namespace conga::campaign {

/// Fault axis of a cell: a named profile executed off a keyed seed.
///  * "none"   — no injector (bit-identical to a run without one).
///  * "random" — fault::make_random_plan over the cell's topology.
///  * "gray"   — fault::make_gray_plan: 2-3 gray-failure links (loss +
///               corruption the control plane never hears about), the
///               chaos_audit gray profile.
struct FaultSpec {
  std::string profile = "none";
  std::uint64_t seed = 1;

  bool operator==(const FaultSpec&) const = default;
};

struct ExperimentSpec {
  std::string dist = "enterprise";  ///< enterprise|datamining|websearch|fixed:<bytes>
  std::string policy = "conga";     ///< lb_ext policy-registry name
  double load = 0.6;                ///< offered load fraction in (0, 1]
  net::TopologyConfig topo;

  // Transport knobs the sweeps vary (the rest of TcpConfig is fixed; a new
  // knob becomes a new field with the old value as default).
  sim::TimeNs min_rto_ns = sim::milliseconds(200);
  bool dctcp = false;
  /// MPTCP subflows per flow (§5's MPTCP rows); 0 = plain TCP. Serialized
  /// only when > 0, so plain-TCP specs keep their canonical bytes.
  int mptcp_subflows = 0;

  sim::TimeNs warmup_ns = sim::milliseconds(10);
  sim::TimeNs measure_ns = sim::milliseconds(40);
  sim::TimeNs max_drain_ns = sim::seconds(1.0);

  std::uint64_t fabric_seed = 1;
  std::uint64_t traffic_seed = 7;

  FaultSpec fault;
};

/// Topology -> canonical document (shared by cell specs and campaign
/// requests).
Json json_of_topo(const net::TopologyConfig& topo);

/// Spec -> canonical JSON document (fixed member order).
Json json_of_spec(const ExperimentSpec& spec);
/// Spec -> canonical JSON bytes (compact dump of json_of_spec).
std::string canonical_json(const ExperimentSpec& spec);

/// Strict parse from text: fields in any order; an unknown, repeated,
/// mistyped or out-of-range field is an error; absent fields keep their
/// defaults. Returns false and sets `err`.
bool parse_spec(const std::string& text, ExperimentSpec& out,
                std::string& err);

/// Content-addressed cache key: 32 lowercase hex chars over the canonical
/// spec bytes and the build fingerprint (two independent 64-bit hashes — a
/// collision must fool both).
std::string cell_key(const ExperimentSpec& spec,
                     const std::string& fingerprint);

/// Expands the spec to a runnable config, resolving the policy and
/// distribution registries and arming the fault profile (the returned
/// config's fabric_hook owns the injector; a workload::Experiment keeps a
/// copy of the hook through its run). Returns false and sets `err` for
/// unknown names or invalid parameters; `out` is untouched on failure.
bool to_experiment_config(const ExperimentSpec& spec,
                          workload::ExperimentConfig& out, std::string& err);

/// to_experiment_config + run_fct_experiment: the one path from a spec to a
/// result (campaign cells, verify-sample recomputes, supervised children).
/// Returns false and sets `err` when the spec does not resolve.
bool run_spec(const ExperimentSpec& spec, workload::ExperimentResult& out,
              std::string& err);

/// The Fig 11(c) hotspot scenario: the Fig 7b testbed (one Leaf1-Spine1
/// link down) with `hosts_per_leaf` hosts per leaf and 10 MB fabric queues,
/// data-mining at 60% load under `policy`, 10 ms minimum RTO, fabric seed
/// 31, traffic seed 7; arrivals until `stop`, measured from 10 ms, no
/// drain. bench/fig11_link_failure part (c) and `conga_trace record` both
/// run it through run_hotspot.
ExperimentSpec hotspot_spec(const std::string& policy, int hosts_per_leaf,
                            sim::TimeNs stop);

/// Runs `spec` with `sink` attached ahead of the spec's own fabric hook (so
/// fault transitions are recorded) and samples the hotspot [Spine1->Leaf1]
/// queue every 100 us over the measurement window into `queue_bytes`.
/// Returns false and sets `err` when the spec does not resolve.
bool run_hotspot(const ExperimentSpec& spec, telemetry::TraceSink& sink,
                 stats::Summary& queue_bytes, std::string& err);

/// Serializes a result into the store's canonical payload object (fixed
/// member order; doubles in shortest-round-trip form).
Json json_of_result(const workload::ExperimentResult& r);
/// Strict inverse of json_of_result (same contract as parse_spec).
bool result_from_json(const Json& doc, workload::ExperimentResult& out,
                      std::string& err);

}  // namespace conga::campaign
