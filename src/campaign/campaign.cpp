#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "campaign/codec.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/run_phases.hpp"
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

namespace detail {

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
  run.stats.misses = misses.size();
  return misses;
}

// a: cell index in canonical order, b: FNV-1a of the cell key.
void emit_cache_events(const CampaignRun& run,
                       const std::vector<std::uint8_t>& stored,
                       telemetry::TraceSink* sink) {
  if (sink == nullptr) return;
  const telemetry::ComponentId comp =
      sink->intern_component("campaign/" + run.spec.name);
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
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
        break;  // supervised runs report these as kSupervisorQuarantine
    }
    if (stored[i] != 0) {
      telemetry::emit(sink, telemetry::EventType::kCampaignStoreWrite, comp,
                      0, i, key_hash);
    }
  }
}

}  // namespace detail

namespace {

/// run_spec for one expanded cell, with the failure named by coordinate.
workload::ExperimentResult simulate_cell(const Cell& cell) {
  workload::ExperimentResult r;
  std::string err;
  if (!run_spec(cell.spec, r, err)) {
    throw std::runtime_error("cell " + cell_coordinate(cell) + ": " + err);
  }
  return r;
}

}  // namespace

bool run_campaign(const CampaignSpec& spec, const RunOptions& opts,
                  CampaignRun& out, std::string& err) {
  CampaignRun run;
  if (!detail::start_run(spec, run, err)) return false;
  const std::vector<std::size_t> misses =
      detail::look_up_cells(run, opts.store, opts.verbose);
  const std::uint64_t writes_before =
      opts.store != nullptr ? opts.store->writes() : 0;

  // Phase 2 — misses on the parallel runner; each worker owns its whole
  // simulation and writes its entry back itself (put() is thread-safe).
  // A store that stops accepting writes (read-only root, ENOSPC) must not
  // kill a campaign mid-run: the run degrades to in-memory results, warns
  // once, and the report still completes in full.
  std::mutex progress_mu;
  std::atomic<bool> store_degraded{false};
  try {
    runtime::parallel_for(misses.size(), opts.jobs, [&](std::size_t mi) {
      const std::size_t i = misses[mi];
      const Cell& cell = run.cells[i];
      run.results[i] = simulate_cell(cell);
      if (opts.store != nullptr) {
        std::string put_err;
        if (!opts.store->put(cell.key, run.fingerprint,
                             canonical_json(cell.spec), run.results[i],
                             put_err)) {
          if (!store_degraded.exchange(true)) {
            std::fprintf(stderr,
                         "campaign: WARNING store degraded, keeping results "
                         "in memory (%s)\n",
                         put_err.c_str());
          }
        }
      }
      if (opts.verbose) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        std::fprintf(stderr, "  [%s: %zu flows, %.0f%% completed]\n",
                     cell_coordinate(cell).c_str(), run.results[i].flows,
                     run.results[i].completed_fraction * 100);
      }
    });
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }
  run.stats.store_writes =
      opts.store != nullptr ? opts.store->writes() - writes_before : 0;
  run.stats.store = opts.store == nullptr ? StoreHealth::kNone
                    : store_degraded.load() ? StoreHealth::kDegraded
                                            : StoreHealth::kOk;

  // Phase 3 — every computed cell was handed to the store.
  std::vector<std::uint8_t> stored(run.cells.size(), 0);
  if (opts.store != nullptr) {
    for (const std::size_t i : misses) stored[i] = 1;
  }
  detail::emit_cache_events(run, stored, opts.sink);

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

Json stats_json(const RunStats& stats) {
  Json j = Json::object();
  j.set("schema", Json::string(kStatsSchema));
  j.set("cells", Json::uinteger(stats.cells));
  j.set("hits", Json::uinteger(stats.hits));
  j.set("misses", Json::uinteger(stats.misses));
  j.set("corrupt", Json::uinteger(stats.corrupt));
  j.set("failed", Json::uinteger(stats.failed));
  j.set("retries", Json::uinteger(stats.retries));
  j.set("timeouts", Json::uinteger(stats.timeouts));
  j.set("store_writes", Json::uinteger(stats.store_writes));
  j.set("store", Json::string(store_health_name(stats.store)));
  return j;
}

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

  Json cells = Json::array();
  Json missing = Json::array();
  std::uint64_t regressions = 0;
  std::uint64_t improvements = 0;
  for (const detail::ReportCell& cell : cur.cells) {
    const std::string coordinate = coordinate_of(cell);
    const auto it = base_by_coord.find(coordinate);
    if (it == base_by_coord.end()) {
      missing.push_back(Json::string(coordinate));
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
    if (fct_regression || reorder_regression) ++regressions;
    if (fct_improvement && !reorder_regression) ++improvements;

    Json e = Json::object();
    e.set("coordinate", Json::string(coordinate));
    e.set("avg_norm_fct", Json::number(now.avg_norm_fct));
    e.set("baseline_avg_norm_fct", Json::number(was.avg_norm_fct));
    e.set("rel_delta", Json::number(rel_delta));
    e.set("fct_digest_changed",
          Json::boolean(now.fct_digest != was.fct_digest));
    e.set("reorder_segments", Json::uinteger(now.reorder_segments));
    e.set("baseline_reorder_segments", Json::uinteger(was.reorder_segments));
    e.set("status",
          Json::string(fct_regression || reorder_regression ? "regression"
                       : fct_improvement                    ? "improvement"
                                                            : "ok"));
    cells.push_back(std::move(e));
  }

  Json v = Json::object();
  v.set("schema", Json::string(kVerdictSchema));
  v.set("fingerprint", Json::string(cur.fingerprint));
  v.set("baseline_fingerprint", Json::string(base.fingerprint));
  v.set("rel_fct_tolerance", Json::number(opts.rel_fct_tolerance));
  v.set("regressions", Json::uinteger(regressions));
  v.set("improvements", Json::uinteger(improvements));
  v.set("cells", std::move(cells));
  v.set("missing_baseline", std::move(missing));
  out = std::move(v);
  return true;
}

bool verdict_pass(const Json& verdict) {
  const Json* schema = verdict.find("schema");
  const Json* regressions = verdict.find("regressions");
  return verdict.is_object() && schema != nullptr && schema->is_string() &&
         schema->as_string() == kVerdictSchema && regressions != nullptr &&
         regressions->is_integer() && regressions->as_uint() == 0;
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
          const workload::ExperimentResult fresh =
              simulate_cell(run.cells[i]);
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
