// Campaign service: declarative sweep requests, incremental execution.
//
// A campaign is a declarative request — scenario family (named topology
// cases), a seed set, and a policy x load x fault grid — expanded into
// cells in one canonical order. Each cell is an ExperimentSpec keyed by
// cell_key() (canonical spec bytes + build fingerprint) and looked up in a
// content-addressed ResultStore. run_campaign is the one pipeline: store
// lookups on the calling thread, then the misses on the parallel
// experiment runner, each through a CellExecutor (in process by default,
// or in supervised child processes — supervisor.hpp), then one tally in
// cell order that fills the results, stats and cache telemetry. The
// assembled report (conga-campaign-v1) is a pure function of (request,
// code): byte-identical between a cold run and a 100%-cached warm run,
// across --jobs counts, and across executors.
//
// On top of the report sit two audit primitives:
//  * verdicts — per-cell FCT / digest / reorder deltas against a named
//    baseline report, matched on cell coordinates (not cache keys, which
//    change with the code on purpose);
//  * --verify-sample — recompute a deterministic sample of cache hits and
//    fault on any divergence, the defense against a poisoned store.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"
#include "campaign/store.hpp"
#include "net/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::campaign {

/// One member of the scenario family: a named topology variant.
struct CampaignCase {
  std::string name;
  net::TopologyConfig topo;
};

/// One replica seed: per-cell fabric and traffic RNG roots.
struct SeedPair {
  std::uint64_t fabric = 1;
  std::uint64_t traffic = 7;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::string dist = "enterprise";
  std::vector<std::string> policies{"conga"};
  std::vector<int> loads_pct{60};
  std::vector<CampaignCase> cases;  ///< empty = one "baseline" testbed case
  std::vector<SeedPair> seeds{{1, 7}};
  std::vector<FaultSpec> faults{{"none", 1}};

  sim::TimeNs min_rto_ns = sim::milliseconds(200);
  bool dctcp = false;
  int mptcp_subflows = 0;  ///< 0 = plain TCP (see ExperimentSpec)
  sim::TimeNs warmup_ns = sim::milliseconds(10);
  sim::TimeNs measure_ns = sim::milliseconds(40);
  sim::TimeNs max_drain_ns = sim::seconds(1.0);
};

/// Canonical document form of a request (round-trips like specs do).
Json json_of_campaign(const CampaignSpec& spec);
bool campaign_from_json(const Json& doc, CampaignSpec& out, std::string& err);
bool parse_campaign(const std::string& text, CampaignSpec& out,
                    std::string& err);

/// The 2-cell campaign used by CI smoke lanes and the tests:
/// {ecmp, conga} x 40% load on a scaled testbed.
CampaignSpec make_smoke_campaign();

/// One expanded cell: the spec plus its grid coordinates and cache key.
struct Cell {
  ExperimentSpec spec;
  std::string key;
  std::string case_name;
};

/// Canonical expansion order: case -> policy -> load -> seed -> fault.
std::vector<Cell> expand_campaign(const CampaignSpec& spec,
                                  const std::string& fingerprint);

/// The verdict/report join key for a cell: its grid coordinates, stable
/// across code changes (cache keys are not — they fold in the fingerprint).
std::string cell_coordinate(const Cell& cell);

/// How each cell's result was obtained.
enum class CellOrigin : std::uint8_t {
  kComputed = 0,  ///< cache miss, simulated this run
  kCached,        ///< verified store hit
  kRecomputed,    ///< store entry was corrupt; recomputed and overwritten
  kFailed,        ///< supervised cell exhausted its retries; no result
};

/// Health of the backing store over one run. A campaign never dies because
/// its store does: an unwritable store degrades to in-memory results and the
/// report still completes (stats carry the warning).
enum class StoreHealth : std::uint8_t {
  kNone = 0,   ///< ran without a store
  kOk,         ///< every write landed
  kDegraded,   ///< at least one write failed; results kept in memory
};

const char* store_health_name(StoreHealth h);

struct RunStats {
  std::size_t cells = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;    ///< includes corrupt recomputations
  std::size_t corrupt = 0;   ///< corrupt entries detected (and healed)
  std::size_t failed = 0;    ///< quarantined cells (supervised runs)
  std::uint64_t retries = 0;   ///< child re-spawns after a failed attempt
  std::uint64_t timeouts = 0;  ///< children killed at the per-cell deadline
  std::uint64_t store_writes = 0;
  StoreHealth store = StoreHealth::kNone;
};

/// One cell that exhausted its retry budget under supervision. Everything
/// here is deterministic given the failure mode — no wall-clock timestamps —
/// so reports stay comparable across runs.
struct FailedCell {
  std::size_t index = 0;      ///< canonical expansion index
  std::string coordinate;
  std::string key;
  int attempts = 0;           ///< attempts consumed (== max_attempts unless
                              ///< the failure was permanent)
  std::string outcome;        ///< "exit" | "signal" | "timeout"
  int exit_code = 0;          ///< valid when outcome == "exit"
  int term_signal = 0;        ///< valid when outcome == "signal"
  std::string quarantine_path;  ///< poison record, "" when no store
};

struct RunOptions {
  int jobs = 1;
  ResultStore* store = nullptr;  ///< null: compute everything, cache nothing
  telemetry::TraceSink* sink = nullptr;  ///< kCampaign*/kSupervisor* events
  bool verbose = false;                  ///< per-cell stderr progress
};

struct CampaignRun {
  CampaignSpec spec;
  std::string fingerprint;
  std::vector<Cell> cells;
  std::vector<workload::ExperimentResult> results;  ///< cell order
  std::vector<CellOrigin> origins;                  ///< cell order
  std::vector<FailedCell> failed;                   ///< quarantined cells
  RunStats stats;
  /// A supervised run stopped at shutdown with cells still pending: the
  /// results are incomplete, so no report may be written. A rerun on the
  /// same store resumes from the cells that were stored.
  bool drained = false;
};

/// What an executor made of one cache miss.
struct CellOutcome {
  enum class Status : std::uint8_t {
    kDone = 0,  ///< `result` holds the cell's result
    kFailed,    ///< quarantined after `attempts`
    kPending,   ///< shutdown came first; the cell was not resolved
  };
  Status status = Status::kDone;
  workload::ExperimentResult result;
  /// The store write landed; when a store was given and it did not,
  /// `store_error` says why.
  bool stored = false;
  std::string store_error;
  /// Supervised attempts, in order.
  std::vector<AttemptRecord> attempts;
  /// The poison record's path; "" when none was written.
  std::string quarantine_path;
};

/// Computes cache miss `run.cells[index]` on the worker thread that claimed
/// it and writes it to `opts.store`. Called concurrently for distinct
/// cells; reads `run` only. A throw fails the whole run with its message.
using CellExecutor = std::function<CellOutcome(
    const CampaignRun& run, std::size_t index, const RunOptions& opts)>;

/// The in-process executor: run_spec on the worker thread, then put().
CellOutcome simulate_cell(const CampaignRun& run, std::size_t index,
                          const RunOptions& opts);

/// Expands, looks up, computes the misses with `execute` on the parallel
/// runner, and tallies into `out` in cell order. Returns false and sets
/// `err` on invalid requests or unresolvable specs (the in-process
/// executor throws for those). A supervised run that drained returns true
/// with `out.drained` set.
bool run_campaign(const CampaignSpec& spec, const RunOptions& opts,
                  CampaignRun& out, std::string& err,
                  const CellExecutor& execute = simulate_cell);

/// The conga-campaign-v1 report: request axes + per-cell results, plus a
/// `failed_cells` block (empty on clean runs) naming any quarantined cells.
/// A pure function of (request, fingerprint, results, failures) — no cache
/// state and no timestamps, so cold and warm runs serialize byte-identically
/// and a resumed run reproduces an undisturbed run's bytes.
std::string report_json(const CampaignRun& run);

/// Cache statistics document (conga-campaign-stats-v1). Run-dependent by
/// design — kept out of the report so caching stays invisible there.
Json stats_json(const RunStats& stats);

struct VerdictOptions {
  /// Relative avg_norm_fct change flagged as a regression/improvement.
  double rel_fct_tolerance = 0.01;
};

/// Compares two conga-campaign-v1 reports cell-by-cell (coordinate-matched)
/// into a conga-campaign-verdict-v1 document. Returns false and sets `err`
/// if either document is not a campaign report.
bool make_verdict(const Json& report, const Json& baseline,
                  const VerdictOptions& opts, Json& out, std::string& err);

/// True when a verdict document carries no FCT or reorder regressions.
bool verdict_pass(const Json& verdict);

struct VerifyOutcome {
  std::size_t sampled = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> poisoned_keys;
};

/// Recomputes a deterministic sample of `run`'s cache hits (`fraction` of
/// them, at least one when any exist) and compares the recomputed payload
/// byte-for-byte with the cached one. Mismatches mean the store served a
/// result current code would not produce — a poisoned or stale-keyed entry.
/// Returns false and sets `err` only on expansion/run failures; divergence
/// is reported through `out`.
bool verify_sample(const CampaignRun& run, double fraction, int jobs,
                   telemetry::TraceSink* sink, VerifyOutcome& out,
                   std::string& err);

}  // namespace conga::campaign
