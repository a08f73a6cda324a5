#include "campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "campaign/codec.hpp"
#include "campaign/fingerprint.hpp"
#include "runtime/parallel_runner.hpp"
#include "sim/random.hpp"

namespace conga::campaign {

namespace {

constexpr const char* kRequestSchema = "conga-campaign-request-v1";
constexpr const char* kReportSchema = "conga-campaign-v1";
constexpr const char* kStatsSchema = "conga-campaign-stats-v1";
constexpr const char* kVerdictSchema = "conga-campaign-verdict-v1";

constexpr std::uint64_t kRecomputedFlag = 1ULL << 63;

}  // namespace

namespace detail {

template <class V>
void fields(V& v, SeedPair& s) {
  v.kind("seed");
  v.field("fabric", s.fabric);
  v.field("traffic", s.traffic);
}

template <class V>
void fields(V& v, CampaignCase& c) {
  v.kind("case");
  v.field("name", c.name);
  v.field("topo", c.topo, kRequired);
}

template <class V>
void fields(V& v, CampaignSpec& c) {
  v.kind("campaign");
  v.schema(kRequestSchema);
  v.field("name", c.name);
  v.field("dist", c.dist);
  v.field("policies", c.policies);
  v.field("loads_pct", c.loads_pct);
  v.field("min_rto_ns", c.min_rto_ns);
  v.field("dctcp", c.dctcp);
  v.field("mptcp_subflows", c.mptcp_subflows, emit_if(c.mptcp_subflows > 0));
  v.field("warmup_ns", c.warmup_ns);
  v.field("measure_ns", c.measure_ns);
  v.field("max_drain_ns", c.max_drain_ns);
  v.field("seeds", c.seeds);
  v.field("faults", c.faults);
  v.field("cases", c.cases);
}

/// One entry of a report's "cells": grid coordinates, key and result.
struct ReportCell {
  std::string case_name;
  std::string policy;
  int load_pct = 0;
  std::uint64_t fabric_seed = 0;
  std::uint64_t traffic_seed = 0;
  std::string fault_profile;
  std::uint64_t fault_seed = 0;
  std::string key;
  workload::ExperimentResult result;
};

template <class V>
void fields(V& v, ReportCell& c) {
  v.kind("report cell");
  v.field("case", c.case_name, kRequired);
  v.field("policy", c.policy, kRequired);
  v.field("load_pct", c.load_pct, kRequired);
  v.field("fabric_seed", c.fabric_seed, kRequired);
  v.field("traffic_seed", c.traffic_seed, kRequired);
  v.field("fault_profile", c.fault_profile, kRequired);
  v.field("fault_seed", c.fault_seed, kRequired);
  v.field("key", c.key);
  v.field("result", c.result, kRequired);
}

template <class V>
void fields(V& v, FailedCell& f) {
  v.kind("failed cell");
  v.field("coordinate", f.coordinate);
  v.field("key", f.key);
  v.field("attempts", f.attempts);
  v.field("outcome", f.outcome);
  v.field("exit_code", f.exit_code);
  v.field("signal", f.term_signal);
  v.field("quarantine", f.quarantine_path);
}

/// The conga-campaign-v1 report document.
struct Report {
  std::string name;
  std::string fingerprint;
  Json request;
  std::vector<ReportCell> cells;
  std::vector<FailedCell> failed_cells;
};

template <class V>
void fields(V& v, Report& r) {
  v.kind("report");
  v.schema(kReportSchema, kRequired);
  v.field("name", r.name);
  v.field("fingerprint", r.fingerprint);
  v.field("request", r.request);
  v.field("cells", r.cells, kRequired);
  v.field("failed_cells", r.failed_cells);
}

template <class V>
void fields(V& v, RunStats& s) {
  v.kind("stats");
  v.schema(kStatsSchema, kRequired);
  v.field("cells", s.cells);
  v.field("hits", s.hits);
  v.field("misses", s.misses);
  v.field("corrupt", s.corrupt);
  v.field("failed", s.failed);
  v.field("retries", s.retries);
  v.field("timeouts", s.timeouts);
  v.field("store_writes", s.store_writes);
  std::string store = store_health_name(s.store);
  v.field("store", store);
  for (const StoreHealth h :
       {StoreHealth::kNone, StoreHealth::kOk, StoreHealth::kDegraded}) {
    if (store == store_health_name(h) && s.store != h) s.store = h;
  }
}

/// One entry of a verdict's "cells".
struct VerdictCell {
  std::string coordinate;
  double avg_norm_fct = 0;
  double baseline_avg_norm_fct = 0;
  double rel_delta = 0;
  bool fct_digest_changed = false;
  std::uint64_t reorder_segments = 0;
  std::uint64_t baseline_reorder_segments = 0;
  std::string status;  ///< "regression" | "improvement" | "ok"
};

template <class V>
void fields(V& v, VerdictCell& c) {
  v.kind("verdict cell");
  v.field("coordinate", c.coordinate);
  v.field("avg_norm_fct", c.avg_norm_fct);
  v.field("baseline_avg_norm_fct", c.baseline_avg_norm_fct);
  v.field("rel_delta", c.rel_delta);
  v.field("fct_digest_changed", c.fct_digest_changed);
  v.field("reorder_segments", c.reorder_segments);
  v.field("baseline_reorder_segments", c.baseline_reorder_segments);
  v.field("status", c.status);
}

/// The conga-campaign-verdict-v1 document.
struct Verdict {
  std::string fingerprint;
  std::string baseline_fingerprint;
  double rel_fct_tolerance = 0;
  std::uint64_t regressions = 0;
  std::uint64_t improvements = 0;
  std::vector<VerdictCell> cells;
  std::vector<std::string> missing_baseline;
};

template <class V>
void fields(V& v, Verdict& d) {
  v.kind("verdict");
  v.schema(kVerdictSchema, kRequired);
  v.field("fingerprint", d.fingerprint);
  v.field("baseline_fingerprint", d.baseline_fingerprint);
  v.field("rel_fct_tolerance", d.rel_fct_tolerance);
  v.field("regressions", d.regressions, kRequired);
  v.field("improvements", d.improvements);
  v.field("cells", d.cells);
  v.field("missing_baseline", d.missing_baseline);
}

}  // namespace detail

namespace {

/// A cell's report entry, result aside.
detail::ReportCell report_cell(const Cell& cell) {
  const ExperimentSpec& s = cell.spec;
  const int load_pct = static_cast<int>(std::lround(s.load * 100.0));
  return {cell.case_name, s.policy,        load_pct,     s.fabric_seed,
          s.traffic_seed, s.fault.profile, s.fault.seed, cell.key, {}};
}

/// The verdict's join key: the grid coordinates of a cell, stable across
/// code changes (cache keys are not — they fold in the fingerprint).
std::string coordinate_of(const detail::ReportCell& c) {
  return c.case_name + "|" + c.policy + "|" + std::to_string(c.load_pct) +
         "|" + std::to_string(c.fabric_seed) + "|" +
         std::to_string(c.traffic_seed) + "|" + c.fault_profile + "|" +
         std::to_string(c.fault_seed);
}

}  // namespace

std::string cell_coordinate(const Cell& cell) {
  return coordinate_of(report_cell(cell));
}

const char* store_health_name(StoreHealth h) {
  switch (h) {
    case StoreHealth::kNone:
      return "none";
    case StoreHealth::kOk:
      return "ok";
    case StoreHealth::kDegraded:
      return "degraded";
  }
  return "none";
}

Json json_of_campaign(const CampaignSpec& spec) {
  return detail::encode(spec);
}

bool campaign_from_json(const Json& doc, CampaignSpec& out, std::string& err) {
  CampaignSpec c;
  if (!detail::decode(doc, c, err)) return false;
  for (const int pct : c.loads_pct) {
    if (pct <= 0 || pct > 100) {
      err = "load_pct out of (0, 100]";
      return false;
    }
  }
  for (const CampaignCase& cc : c.cases) {
    if (cc.name.empty()) {
      err = "case needs a name";
      return false;
    }
  }
  out = std::move(c);
  return true;
}

bool parse_campaign(const std::string& text, CampaignSpec& out,
                    std::string& err) {
  Json doc;
  return Json::parse(text, doc, err) && campaign_from_json(doc, out, err);
}

CampaignSpec make_smoke_campaign() {
  CampaignSpec c;
  c.name = "smoke";
  c.policies = {"ecmp", "conga"};
  c.loads_pct = {40};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 8;  // 16 hosts total — seconds, not minutes
  c.cases.push_back({"testbed", topo});
  c.warmup_ns = sim::milliseconds(2);
  c.measure_ns = sim::milliseconds(8);
  c.max_drain_ns = sim::milliseconds(500);
  return c;
}

std::vector<Cell> expand_campaign(const CampaignSpec& spec,
                                  const std::string& fingerprint) {
  std::vector<CampaignCase> cases = spec.cases;
  if (cases.empty()) cases.push_back({"baseline", net::testbed_baseline()});
  std::vector<Cell> cells;
  cells.reserve(cases.size() * spec.policies.size() * spec.loads_pct.size() *
                spec.seeds.size() * spec.faults.size());
  for (const CampaignCase& cs : cases) {
    for (const std::string& policy : spec.policies) {
      for (const int load : spec.loads_pct) {
        for (const SeedPair& seed : spec.seeds) {
          for (const FaultSpec& fault : spec.faults) {
            Cell cell;
            cell.spec.dist = spec.dist;
            cell.spec.policy = policy;
            cell.spec.load = load / 100.0;
            cell.spec.topo = cs.topo;
            cell.spec.min_rto_ns = spec.min_rto_ns;
            cell.spec.dctcp = spec.dctcp;
            cell.spec.mptcp_subflows = spec.mptcp_subflows;
            cell.spec.warmup_ns = spec.warmup_ns;
            cell.spec.measure_ns = spec.measure_ns;
            cell.spec.max_drain_ns = spec.max_drain_ns;
            cell.spec.fabric_seed = seed.fabric;
            cell.spec.traffic_seed = seed.traffic;
            cell.spec.fault = fault;
            cell.key = cell_key(cell.spec, fingerprint);
            cell.case_name = cs.name;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

namespace {

/// run_spec for one expanded cell, with the failure named by coordinate.
workload::ExperimentResult simulate(const Cell& cell) {
  workload::ExperimentResult r;
  std::string err;
  if (!run_spec(cell.spec, r, err)) {
    throw std::runtime_error("cell " + cell_coordinate(cell) + ": " + err);
  }
  return r;
}

/// Validates the axes, defaults an empty case list to the baseline testbed,
/// and expands `spec` into a fresh, sized `run` (every cell kComputed so
/// far).
bool start_run(const CampaignSpec& spec, CampaignRun& run, std::string& err) {
  if (spec.policies.empty() || spec.loads_pct.empty() || spec.seeds.empty() ||
      spec.faults.empty()) {
    err = "campaign axes must be non-empty "
          "(policies, loads_pct, seeds, faults)";
    return false;
  }
  run.spec = spec;
  if (run.spec.cases.empty()) {
    run.spec.cases.push_back({"baseline", net::testbed_baseline()});
  }
  run.fingerprint = code_fingerprint();
  run.cells = expand_campaign(run.spec, run.fingerprint);
  const std::size_t n = run.cells.size();
  run.results.resize(n);
  run.origins.assign(n, CellOrigin::kComputed);
  run.stats.cells = n;
  return true;
}

/// Store lookups on the calling thread. Hits are loaded and marked kCached,
/// corrupt entries kRecomputed. Returns the cells left to compute, in
/// canonical order.
std::vector<std::size_t> look_up_cells(CampaignRun& run, ResultStore* store,
                                       bool verbose) {
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    if (store == nullptr) {
      misses.push_back(i);
      continue;
    }
    std::string load_err;
    switch (store->load(run.cells[i].key, run.results[i], load_err)) {
      case ResultStore::LoadStatus::kHit:
        run.origins[i] = CellOrigin::kCached;
        ++run.stats.hits;
        break;
      case ResultStore::LoadStatus::kCorrupt:
        run.origins[i] = CellOrigin::kRecomputed;
        ++run.stats.corrupt;
        if (verbose) {
          std::fprintf(stderr,
                       "campaign: corrupt entry %s (%s); recomputing\n",
                       run.cells[i].key.c_str(), load_err.c_str());
        }
        misses.push_back(i);
        break;
      case ResultStore::LoadStatus::kMiss:
        misses.push_back(i);
        break;
    }
  }
  return misses;
}

/// The kSupervisor* events of cell `i`, replayed from its attempt log.
/// b encodings as in telemetry.hpp.
void emit_attempts(telemetry::TraceSink* sink, telemetry::ComponentId comp,
                   std::size_t i, const CellOutcome& o) {
  using telemetry::EventType;
  for (const AttemptRecord& a : o.attempts) {
    const auto n = static_cast<std::uint64_t>(a.attempt);
    telemetry::emit(sink, EventType::kSupervisorSpawn, comp, 0, i, n);
    if (a.outcome == "timeout") {
      telemetry::emit(sink, EventType::kSupervisorTimeout, comp, 0, i, n);
    }
    const std::uint64_t status =
        a.outcome == "exit"
            ? static_cast<std::uint64_t>(a.exit_code)
            : (0x100ULL | static_cast<std::uint64_t>(a.term_signal));
    telemetry::emit(sink, EventType::kSupervisorExit, comp, 0, i,
                    (n << 32) | status);
    if (&a != &o.attempts.back()) {
      telemetry::emit(sink, EventType::kSupervisorRetry, comp, 0, i,
                      (n << 32) | static_cast<std::uint64_t>(a.backoff_ms));
    }
  }
  if (o.status == CellOutcome::Status::kFailed) {
    telemetry::emit(sink, EventType::kSupervisorQuarantine, comp, 0, i,
                    o.attempts.size());
  }
}

/// Every cell's events in cell order: the supervised attempts first, then
/// one kCampaignCellHit/kCampaignCellMiss per resolved cell and a
/// kCampaignStoreWrite for each write that landed. Main thread only (the
/// sink is thread-confined).
// kCampaign* a: cell index in canonical order, b: FNV-1a of the cell key.
void emit_events(const CampaignRun& run,
                 const std::vector<std::size_t>& misses,
                 const std::vector<CellOutcome>& outcomes,
                 telemetry::TraceSink* sink) {
  if (sink == nullptr) return;
  const bool supervised =
      std::any_of(outcomes.begin(), outcomes.end(),
                  [](const CellOutcome& o) { return !o.attempts.empty(); });
  if (supervised) {
    const telemetry::ComponentId sup =
        sink->intern_component("supervisor/" + run.spec.name);
    for (std::size_t mi = 0; mi < misses.size(); ++mi) {
      emit_attempts(sink, sup, misses[mi], outcomes[mi]);
    }
  }
  const telemetry::ComponentId comp =
      sink->intern_component("campaign/" + run.spec.name);
  std::size_t mi = 0;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const bool missed = mi < misses.size() && misses[mi] == i;
    const bool stored = missed && outcomes[mi++].stored;
    const std::uint64_t key_hash = fnv1a64(run.cells[i].key);
    switch (run.origins[i]) {
      case CellOrigin::kCached:
        telemetry::emit(sink, telemetry::EventType::kCampaignCellHit, comp, 0,
                        i, key_hash);
        break;
      case CellOrigin::kComputed:
        telemetry::emit(sink, telemetry::EventType::kCampaignCellMiss, comp,
                        0, i, key_hash);
        break;
      case CellOrigin::kRecomputed:
        telemetry::emit(sink, telemetry::EventType::kCampaignCellMiss, comp,
                        0, i, key_hash | kRecomputedFlag);
        break;
      case CellOrigin::kFailed:
        break;  // reported as kSupervisorQuarantine
    }
    if (stored) {
      telemetry::emit(sink, telemetry::EventType::kCampaignStoreWrite, comp,
                      0, i, key_hash);
    }
  }
}

}  // namespace

CellOutcome simulate_cell(const CampaignRun& run, std::size_t index,
                          const RunOptions& opts) {
  const Cell& cell = run.cells[index];
  CellOutcome out;
  out.result = simulate(cell);
  if (opts.store != nullptr) {
    out.stored = opts.store->put(cell.key, run.fingerprint,
                                 canonical_json(cell.spec), out.result,
                                 out.store_error);
  }
  if (opts.verbose) {
    std::fprintf(stderr, "  [%s: %zu flows, %.0f%% completed]\n",
                 cell_coordinate(cell).c_str(), out.result.flows,
                 out.result.completed_fraction * 100);
  }
  return out;
}

bool run_campaign(const CampaignSpec& spec, const RunOptions& opts,
                  CampaignRun& out, std::string& err,
                  const CellExecutor& execute) {
  CampaignRun run;
  if (!start_run(spec, run, err)) return false;
  const std::vector<std::size_t> misses =
      look_up_cells(run, opts.store, opts.verbose);

  // Phase 2 — the misses on the parallel runner. An executor reads `run`
  // and fills only its own outcome slot.
  std::vector<CellOutcome> outcomes;
  try {
    outcomes = runtime::parallel_map<CellOutcome>(
        misses.size(), opts.jobs,
        [&](std::size_t mi) { return execute(run, misses[mi], opts); });
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }

  // Phase 3 — one tally in cell order. A store that stops accepting writes
  // (read-only root, ENOSPC) must not kill a campaign: the run keeps its
  // results in memory, warns once, and the report still completes.
  RunStats& st = run.stats;
  st.misses = misses.size();
  st.store = opts.store == nullptr ? StoreHealth::kNone : StoreHealth::kOk;
  for (std::size_t mi = 0; mi < misses.size(); ++mi) {
    const std::size_t i = misses[mi];
    CellOutcome& o = outcomes[mi];
    if (o.status == CellOutcome::Status::kPending) {
      run.drained = true;
      continue;
    }
    if (!o.attempts.empty()) st.retries += o.attempts.size() - 1;
    for (const AttemptRecord& a : o.attempts) {
      if (a.outcome == "timeout") ++st.timeouts;
    }
    if (o.status == CellOutcome::Status::kFailed) {
      const Cell& cell = run.cells[i];
      const AttemptRecord& last = o.attempts.back();
      run.origins[i] = CellOrigin::kFailed;
      run.failed.push_back({i, cell_coordinate(cell), cell.key,
                            static_cast<int>(o.attempts.size()), last.outcome,
                            last.exit_code, last.term_signal,
                            o.quarantine_path});
      std::fprintf(stderr,
                   "supervisor: QUARANTINE cell %zu (%s) after %zu "
                   "attempt(s): %s\n",
                   i, run.failed.back().coordinate.c_str(),
                   o.attempts.size(), last.outcome.c_str());
      continue;
    }
    run.results[i] = std::move(o.result);
    if (o.stored) ++st.store_writes;
    if (opts.store != nullptr && !o.stored &&
        st.store != StoreHealth::kDegraded) {
      st.store = StoreHealth::kDegraded;
      std::fprintf(stderr,
                   "campaign: WARNING store degraded, keeping results in "
                   "memory (%s)\n",
                   o.store_error.c_str());
    }
  }
  st.failed = run.failed.size();
  if (!run.drained) emit_events(run, misses, outcomes, opts.sink);

  out = std::move(run);
  return true;
}

std::string report_json(const CampaignRun& run) {
  detail::Report report{run.spec.name, run.fingerprint,
                        json_of_campaign(run.spec), {}, run.failed};
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    if (i < run.origins.size() && run.origins[i] == CellOrigin::kFailed) {
      continue;  // quarantined cells live in failed_cells, not cells
    }
    report.cells.push_back(report_cell(run.cells[i]));
    report.cells.back().result = run.results[i];
  }
  return detail::encode(report).dump_pretty() + "\n";
}

Json stats_json(const RunStats& stats) { return detail::encode(stats); }

bool make_verdict(const Json& report, const Json& baseline,
                  const VerdictOptions& opts, Json& out, std::string& err) {
  detail::Report cur;
  detail::Report base;
  if (!detail::decode(report, cur, err)) {
    err = "report: " + err;
    return false;
  }
  if (!detail::decode(baseline, base, err)) {
    err = "baseline: " + err;
    return false;
  }

  // Coordinate -> baseline result. std::map, not unordered: verdict cell
  // order must be deterministic (the conga-lint iteration rule).
  std::map<std::string, const workload::ExperimentResult*> base_by_coord;
  for (const detail::ReportCell& c : base.cells) {
    base_by_coord[coordinate_of(c)] = &c.result;
  }

  detail::Verdict v{cur.fingerprint, base.fingerprint, opts.rel_fct_tolerance,
                    0, 0, {}, {}};
  for (const detail::ReportCell& cell : cur.cells) {
    const std::string coordinate = coordinate_of(cell);
    const auto it = base_by_coord.find(coordinate);
    if (it == base_by_coord.end()) {
      v.missing_baseline.push_back(coordinate);
      continue;
    }
    const workload::ExperimentResult& now = cell.result;
    const workload::ExperimentResult& was = *it->second;
    const double rel_delta =
        was.avg_norm_fct != 0.0
            ? (now.avg_norm_fct - was.avg_norm_fct) / was.avg_norm_fct
            : (now.avg_norm_fct != 0.0 ? 1.0 : 0.0);
    const bool fct_regression = rel_delta > opts.rel_fct_tolerance;
    const bool fct_improvement = rel_delta < -opts.rel_fct_tolerance;
    const bool reorder_regression =
        now.reorder_segments > was.reorder_segments &&
        (was.reorder_segments == 0 ||
         static_cast<double>(now.reorder_segments - was.reorder_segments) /
                 static_cast<double>(was.reorder_segments) >
             opts.rel_fct_tolerance);
    if (fct_regression || reorder_regression) ++v.regressions;
    if (fct_improvement && !reorder_regression) ++v.improvements;
    v.cells.push_back({coordinate, now.avg_norm_fct, was.avg_norm_fct,
                       rel_delta, now.fct_digest != was.fct_digest,
                       now.reorder_segments, was.reorder_segments,
                       fct_regression || reorder_regression ? "regression"
                       : fct_improvement                    ? "improvement"
                                                            : "ok"});
  }
  out = detail::encode(v);
  return true;
}

bool verdict_pass(const Json& verdict) {
  detail::Verdict v;
  std::string err;
  return detail::decode(verdict, v, err) && v.regressions == 0;
}

bool verify_sample(const CampaignRun& run, double fraction, int jobs,
                   telemetry::TraceSink* sink, VerifyOutcome& out,
                   std::string& err) {
  out = VerifyOutcome{};
  if (!(fraction > 0.0)) return true;
  if (fraction > 1.0) fraction = 1.0;

  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    if (run.origins[i] == CellOrigin::kCached) hits.push_back(i);
  }
  if (hits.empty()) return true;

  // Deterministic sample: keyed off the fingerprint and campaign name, so a
  // rerun of the same campaign on the same build re-verifies the same cells
  // (and a new build rotates the sample).
  sim::Rng rng(fnv1a64(run.fingerprint + "|" + run.spec.name));
  sim::shuffle(hits, rng);
  const std::size_t want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(fraction * static_cast<double>(hits.size()))));
  hits.resize(std::min(want, hits.size()));

  std::vector<std::uint8_t> mismatched;
  try {
    mismatched = runtime::parallel_map<std::uint8_t>(
        hits.size(), jobs, [&](std::size_t si) -> std::uint8_t {
          const std::size_t i = hits[si];
          const workload::ExperimentResult fresh = simulate(run.cells[i]);
          return json_of_result(fresh).dump() !=
                         json_of_result(run.results[i]).dump()
                     ? 1
                     : 0;
        });
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }

  const telemetry::ComponentId comp =
      sink != nullptr ? sink->intern_component("campaign/" + run.spec.name)
                      : telemetry::kInvalidComponent;
  for (std::size_t si = 0; si < hits.size(); ++si) {
    const std::size_t i = hits[si];
    const std::uint64_t key_hash = fnv1a64(run.cells[i].key);
    telemetry::emit(sink, telemetry::EventType::kCampaignVerifyRecompute,
                    comp, 0, i,
                    mismatched[si] != 0 ? (key_hash | kRecomputedFlag)
                                        : key_hash);
    ++out.sampled;
    if (mismatched[si] != 0) {
      ++out.mismatched;
      out.poisoned_keys.push_back(run.cells[i].key);
    }
  }
  return true;
}

}  // namespace conga::campaign
