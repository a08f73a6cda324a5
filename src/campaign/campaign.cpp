#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "campaign/field_reader.hpp"
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

using detail::FieldReader;
using detail::read_field;

int load_pct_of(const ExperimentSpec& spec) {
  return static_cast<int>(std::lround(spec.load * 100.0));
}

/// The verdict's join key: the grid coordinates of a cell, stable across
/// code changes (cache keys are not — they fold in the fingerprint).
std::string coordinate_of(const std::string& case_name,
                          const std::string& policy, int load_pct,
                          std::uint64_t fabric_seed,
                          std::uint64_t traffic_seed,
                          const std::string& fault_profile,
                          std::uint64_t fault_seed) {
  return case_name + "|" + policy + "|" + std::to_string(load_pct) + "|" +
         std::to_string(fabric_seed) + "|" + std::to_string(traffic_seed) +
         "|" + fault_profile + "|" + std::to_string(fault_seed);
}

constexpr std::uint64_t kRecomputedFlag = 1ULL << 63;

}  // namespace

std::string cell_coordinate(const Cell& cell) {
  const ExperimentSpec& s = cell.spec;
  return coordinate_of(cell.case_name, s.policy, load_pct_of(s),
                       s.fabric_seed, s.traffic_seed, s.fault.profile,
                       s.fault.seed);
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
  Json j = Json::object();
  j.set("schema", Json::string(kRequestSchema));
  j.set("name", Json::string(spec.name));
  j.set("dist", Json::string(spec.dist));
  Json policies = Json::array();
  for (const std::string& p : spec.policies) policies.push_back(Json::string(p));
  j.set("policies", std::move(policies));
  Json loads = Json::array();
  for (const int l : spec.loads_pct) loads.push_back(Json::integer(l));
  j.set("loads_pct", std::move(loads));
  j.set("min_rto_ns", Json::integer(spec.min_rto_ns));
  j.set("dctcp", Json::boolean(spec.dctcp));
  if (spec.mptcp_subflows > 0) {
    j.set("mptcp_subflows", Json::integer(spec.mptcp_subflows));
  }
  j.set("warmup_ns", Json::integer(spec.warmup_ns));
  j.set("measure_ns", Json::integer(spec.measure_ns));
  j.set("max_drain_ns", Json::integer(spec.max_drain_ns));
  Json seeds = Json::array();
  for (const SeedPair& s : spec.seeds) {
    Json e = Json::object();
    e.set("fabric", Json::uinteger(s.fabric));
    e.set("traffic", Json::uinteger(s.traffic));
    seeds.push_back(std::move(e));
  }
  j.set("seeds", std::move(seeds));
  Json faults = Json::array();
  for (const FaultSpec& f : spec.faults) {
    Json e = Json::object();
    e.set("profile", Json::string(f.profile));
    e.set("seed", Json::uinteger(f.seed));
    faults.push_back(std::move(e));
  }
  j.set("faults", std::move(faults));
  Json cases = Json::array();
  for (const CampaignCase& c : spec.cases) {
    Json e = Json::object();
    e.set("name", Json::string(c.name));
    e.set("topo", json_of_topo(c.topo));
    cases.push_back(std::move(e));
  }
  j.set("cases", std::move(cases));
  return j;
}

bool campaign_from_json(const Json& doc, CampaignSpec& out, std::string& err) {
  if (!doc.is_object()) {
    err = "campaign must be an object";
    return false;
  }
  FieldReader r{err};
  CampaignSpec c;
  for (const auto& [key, v] : doc.members()) {
    if (key == "schema") {
      std::string schema;
      if (read_field(r, v, key, schema) && schema != kRequestSchema) {
        return r.fail("unsupported campaign schema '" + schema + "'");
      }
    } else if (key == "name") read_field(r, v, key, c.name);
    else if (key == "dist") read_field(r, v, key, c.dist);
    else if (key == "policies") {
      if (!v.is_array()) return r.fail("policies must be an array");
      c.policies.clear();
      for (const Json& p : v.items()) {
        std::string name;
        if (!read_field(r, p, "policy", name)) return false;
        c.policies.push_back(name);
      }
    } else if (key == "loads_pct") {
      if (!v.is_array()) return r.fail("loads_pct must be an array");
      c.loads_pct.clear();
      for (const Json& l : v.items()) {
        std::int64_t pct = 0;
        if (!read_field(r, l, "load_pct", pct)) return false;
        if (pct <= 0 || pct > 100) return r.fail("load_pct out of (0, 100]");
        c.loads_pct.push_back(static_cast<int>(pct));
      }
    } else if (key == "min_rto_ns") read_field(r, v, key, c.min_rto_ns);
    else if (key == "dctcp") read_field(r, v, key, c.dctcp);
    else if (key == "mptcp_subflows") read_field(r, v, key, c.mptcp_subflows);
    else if (key == "warmup_ns") read_field(r, v, key, c.warmup_ns);
    else if (key == "measure_ns") read_field(r, v, key, c.measure_ns);
    else if (key == "max_drain_ns") read_field(r, v, key, c.max_drain_ns);
    else if (key == "seeds") {
      if (!v.is_array()) return r.fail("seeds must be an array");
      c.seeds.clear();
      for (const Json& s : v.items()) {
        if (!s.is_object()) return r.fail("seed entry must be an object");
        SeedPair pair;
        for (const auto& [sk, sv] : s.members()) {
          if (sk == "fabric") read_field(r, sv, sk, pair.fabric);
          else if (sk == "traffic") read_field(r, sv, sk, pair.traffic);
          else return r.fail("unknown seed field '" + sk + "'");
          if (!r.ok) return false;
        }
        c.seeds.push_back(pair);
      }
    } else if (key == "faults") {
      if (!v.is_array()) return r.fail("faults must be an array");
      c.faults.clear();
      for (const Json& f : v.items()) {
        if (!f.is_object()) return r.fail("fault entry must be an object");
        FaultSpec fs;
        for (const auto& [fk, fv] : f.members()) {
          if (fk == "profile") read_field(r, fv, fk, fs.profile);
          else if (fk == "seed") read_field(r, fv, fk, fs.seed);
          else return r.fail("unknown fault field '" + fk + "'");
          if (!r.ok) return false;
        }
        c.faults.push_back(fs);
      }
    } else if (key == "cases") {
      if (!v.is_array()) return r.fail("cases must be an array");
      c.cases.clear();
      for (const Json& e : v.items()) {
        if (!e.is_object()) return r.fail("case entry must be an object");
        CampaignCase cc;
        bool have_topo = false;
        for (const auto& [ck, cv] : e.members()) {
          if (ck == "name") read_field(r, cv, ck, cc.name);
          else if (ck == "topo") {
            if (!topo_from_json(cv, cc.topo, err)) return false;
            have_topo = true;
          } else {
            return r.fail("unknown case field '" + ck + "'");
          }
          if (!r.ok) return false;
        }
        if (cc.name.empty()) return r.fail("case needs a name");
        if (!have_topo) return r.fail("case '" + cc.name + "' needs a topo");
        c.cases.push_back(std::move(cc));
      }
    } else {
      return r.fail("unknown campaign field '" + key + "'");
    }
    if (!r.ok) return false;
  }
  out = std::move(c);
  return true;
}

bool parse_campaign(const std::string& text, CampaignSpec& out,
                    std::string& err) {
  Json doc;
  if (!Json::parse(text, doc, err)) return false;
  return campaign_from_json(doc, out, err);
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
  Json j = Json::object();
  j.set("schema", Json::string(kReportSchema));
  j.set("name", Json::string(run.spec.name));
  j.set("fingerprint", Json::string(run.fingerprint));
  j.set("request", json_of_campaign(run.spec));
  Json cells = Json::array();
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    if (i < run.origins.size() && run.origins[i] == CellOrigin::kFailed) {
      continue;  // quarantined cells live in failed_cells, not cells
    }
    const Cell& cell = run.cells[i];
    Json e = Json::object();
    e.set("case", Json::string(cell.case_name));
    e.set("policy", Json::string(cell.spec.policy));
    e.set("load_pct", Json::integer(load_pct_of(cell.spec)));
    e.set("fabric_seed", Json::uinteger(cell.spec.fabric_seed));
    e.set("traffic_seed", Json::uinteger(cell.spec.traffic_seed));
    e.set("fault_profile", Json::string(cell.spec.fault.profile));
    e.set("fault_seed", Json::uinteger(cell.spec.fault.seed));
    e.set("key", Json::string(cell.key));
    e.set("result", json_of_result(run.results[i]));
    cells.push_back(std::move(e));
  }
  j.set("cells", std::move(cells));
  Json failed = Json::array();
  for (const FailedCell& f : run.failed) {
    Json e = Json::object();
    e.set("coordinate", Json::string(f.coordinate));
    e.set("key", Json::string(f.key));
    e.set("attempts", Json::integer(f.attempts));
    e.set("outcome", Json::string(f.outcome));
    e.set("exit_code", Json::integer(f.exit_code));
    e.set("signal", Json::integer(f.term_signal));
    e.set("quarantine", Json::string(f.quarantine_path));
    failed.push_back(std::move(e));
  }
  j.set("failed_cells", std::move(failed));
  return j.dump_pretty() + "\n";
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

namespace {

/// Pulls the coordinate string and the interesting metrics out of one
/// report cell; false when the cell is malformed.
struct ReportCell {
  std::string coordinate;
  double avg_norm_fct = 0.0;
  std::string fct_digest;
  std::uint64_t reorder_segments = 0;
};

bool read_report_cell(const Json& e, ReportCell& out, std::string& err) {
  const Json* case_name = e.find("case");
  const Json* policy = e.find("policy");
  const Json* load_pct = e.find("load_pct");
  const Json* fabric_seed = e.find("fabric_seed");
  const Json* traffic_seed = e.find("traffic_seed");
  const Json* fault_profile = e.find("fault_profile");
  const Json* fault_seed = e.find("fault_seed");
  const Json* result = e.find("result");
  if (case_name == nullptr || !case_name->is_string() || policy == nullptr ||
      !policy->is_string() || load_pct == nullptr ||
      !load_pct->is_integer() || fabric_seed == nullptr ||
      !fabric_seed->is_integer() || traffic_seed == nullptr ||
      !traffic_seed->is_integer() || fault_profile == nullptr ||
      !fault_profile->is_string() || fault_seed == nullptr ||
      !fault_seed->is_integer() || result == nullptr || !result->is_object()) {
    err = "malformed report cell";
    return false;
  }
  out.coordinate = coordinate_of(
      case_name->as_string(), policy->as_string(),
      static_cast<int>(load_pct->as_int()), fabric_seed->as_uint(),
      traffic_seed->as_uint(), fault_profile->as_string(),
      fault_seed->as_uint());
  const Json* fct = result->find("avg_norm_fct");
  const Json* digest = result->find("fct_digest");
  const Json* reorder = result->find("reorder_segments");
  if (fct == nullptr || !fct->is_number() || digest == nullptr ||
      !digest->is_string() || reorder == nullptr || !reorder->is_integer()) {
    err = "report cell result missing avg_norm_fct/fct_digest/"
          "reorder_segments";
    return false;
  }
  out.avg_norm_fct = fct->as_double();
  out.fct_digest = digest->as_string();
  out.reorder_segments = reorder->as_uint();
  return true;
}

bool read_report(const Json& doc, std::vector<ReportCell>& out,
                 std::string& fingerprint, std::string& err) {
  const Json* schema = doc.find("schema");
  if (!doc.is_object() || schema == nullptr || !schema->is_string() ||
      schema->as_string() != kReportSchema) {
    err = "not a conga-campaign-v1 report";
    return false;
  }
  const Json* fp = doc.find("fingerprint");
  fingerprint = fp != nullptr && fp->is_string() ? fp->as_string() : "";
  const Json* cells = doc.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    err = "report has no cells array";
    return false;
  }
  out.clear();
  for (const Json& e : cells->items()) {
    ReportCell cell;
    if (!read_report_cell(e, cell, err)) return false;
    out.push_back(std::move(cell));
  }
  return true;
}

}  // namespace

bool make_verdict(const Json& report, const Json& baseline,
                  const VerdictOptions& opts, Json& out, std::string& err) {
  std::vector<ReportCell> cur_cells;
  std::vector<ReportCell> base_cells;
  std::string cur_fp;
  std::string base_fp;
  if (!read_report(report, cur_cells, cur_fp, err)) {
    err = "report: " + err;
    return false;
  }
  if (!read_report(baseline, base_cells, base_fp, err)) {
    err = "baseline: " + err;
    return false;
  }

  // Coordinate -> baseline cell. std::map, not unordered: verdict cell
  // order must be deterministic (the conga-lint iteration rule).
  std::map<std::string, const ReportCell*> base_by_coord;
  for (const ReportCell& c : base_cells) base_by_coord[c.coordinate] = &c;

  Json cells = Json::array();
  Json missing = Json::array();
  std::uint64_t regressions = 0;
  std::uint64_t improvements = 0;
  for (const ReportCell& cur : cur_cells) {
    const auto it = base_by_coord.find(cur.coordinate);
    if (it == base_by_coord.end()) {
      missing.push_back(Json::string(cur.coordinate));
      continue;
    }
    const ReportCell& base = *it->second;
    const double rel_delta =
        base.avg_norm_fct != 0.0
            ? (cur.avg_norm_fct - base.avg_norm_fct) / base.avg_norm_fct
            : (cur.avg_norm_fct != 0.0 ? 1.0 : 0.0);
    const bool fct_regression = rel_delta > opts.rel_fct_tolerance;
    const bool fct_improvement = rel_delta < -opts.rel_fct_tolerance;
    const bool reorder_regression =
        cur.reorder_segments > base.reorder_segments &&
        (base.reorder_segments == 0 ||
         static_cast<double>(cur.reorder_segments - base.reorder_segments) /
                 static_cast<double>(base.reorder_segments) >
             opts.rel_fct_tolerance);
    if (fct_regression || reorder_regression) ++regressions;
    if (fct_improvement && !reorder_regression) ++improvements;

    Json e = Json::object();
    e.set("coordinate", Json::string(cur.coordinate));
    e.set("avg_norm_fct", Json::number(cur.avg_norm_fct));
    e.set("baseline_avg_norm_fct", Json::number(base.avg_norm_fct));
    e.set("rel_delta", Json::number(rel_delta));
    e.set("fct_digest_changed",
          Json::boolean(cur.fct_digest != base.fct_digest));
    e.set("reorder_segments", Json::uinteger(cur.reorder_segments));
    e.set("baseline_reorder_segments", Json::uinteger(base.reorder_segments));
    e.set("status",
          Json::string(fct_regression || reorder_regression ? "regression"
                       : fct_improvement                    ? "improvement"
                                                            : "ok"));
    cells.push_back(std::move(e));
  }

  Json v = Json::object();
  v.set("schema", Json::string(kVerdictSchema));
  v.set("fingerprint", Json::string(cur_fp));
  v.set("baseline_fingerprint", Json::string(base_fp));
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
