// conga_serve — the campaign service CLI.
//
// A campaign is a declarative sweep request (scenario family x policy x load
// x seed x fault grid). conga_serve expands it into content-addressed cells,
// reuses every cell the store already has for this exact code, simulates
// only the misses, and writes a conga-campaign-v1 report that is
// byte-identical whether it came from a cold run, a warm run, a supervised
// run, or an interrupted-and-rerun one. Cache statistics go to --stats-out /
// stderr, never into the report.
//
// Subcommands:
//   run     execute a campaign incrementally
//           --campaign FILE | --builtin NAME   the request (JSON / built-in)
//           --store DIR                        content-addressed result store
//           --jobs N                           workers (threads, or children
//                                              under --supervise; default 1)
//           --out FILE                         report (default stdout)
//           --stats-out FILE                   cache statistics JSON
//           --baseline FILE                    prior report to compare with
//           --verdict-out FILE                 verdict JSON (needs --baseline)
//           --tolerance X                      relative FCT tolerance (0.01)
//           --verify-sample PCT                recompute PCT% of cache hits;
//                                              any divergence is a poisoned
//                                              store and exits nonzero
//           --supervise                        run each miss in an isolated
//                                              child process: crashes/hangs
//                                              are retried then quarantined,
//                                              never fatal to the sweep
//           --deadline-ms N                    per-cell wall-clock budget
//           --max-attempts N                   attempts before quarantine
//           --backoff-base-ms N / --backoff-cap-ms N   retry schedule
//           --drain-grace-ms N                 SIGTERM/SIGINT under
//                                              --supervise: budget for
//                                              in-flight children; the run
//                                              then exits 2 without a report
//                                              and a rerun on the same store
//                                              resumes from its hits
//           --verbose                          per-cell progress on stderr
//   store   maintain a result store
//           gc    --store DIR [--tmp-age-seconds N] [--keep-fingerprints CSV]
//                 remove orphaned tmp files older than N seconds (3600) and,
//                 when a keep list is given, entries from other fingerprints
//                 ("current" names the running build's fingerprint)
//           stat  --store DIR
//                 entry/byte counts by fingerprint, JSON on stdout
//   expand  print the cell grid (coordinates and cache keys), no simulation
//           --campaign FILE | --builtin NAME
//   verdict compare two reports offline
//           --report FILE --baseline FILE [--out FILE] [--tolerance X]
//
// The CONGA_CELL_FAULT env knob ("crash:0,hang:2@1,tear:3") injects
// deterministic child failures under --supervise — test-only.
//
// Each subcommand takes only the flags listed for it above (verdict also
// takes --verdict-out as a synonym of --out); any other flag is a usage
// error.
//
// Exit status: 0 success; 1 regression verdict, store poisoning, or
// quarantined cells; 2 usage or I/O error, or a supervised run interrupted
// by SIGTERM/SIGINT.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "cli_flags.hpp"

using namespace conga;

namespace {

std::atomic<bool> g_shutdown{false};
static_assert(std::atomic<bool>::is_always_lock_free);  // signal-safe store

void on_shutdown_signal(int) { g_shutdown.store(true); }

/// Prints `msg` (when given) and the usage text, then exits 2.
[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "conga_serve: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: conga_serve run    [--campaign FILE | --builtin NAME] "
      "[--store DIR]\n"
      "                          [--jobs N] [--out FILE] [--stats-out FILE]\n"
      "                          [--baseline FILE --verdict-out FILE]\n"
      "                          [--tolerance X] [--verify-sample PCT]\n"
      "                          [--supervise] [--deadline-ms N] "
      "[--max-attempts N]\n"
      "                          [--backoff-base-ms N] [--backoff-cap-ms N] "
      "[--drain-grace-ms N]\n"
      "                          [--verbose]\n"
      "       conga_serve store  gc   --store DIR [--tmp-age-seconds N]\n"
      "                               [--keep-fingerprints CSV]\n"
      "       conga_serve store  stat --store DIR\n"
      "       conga_serve expand [--campaign FILE | --builtin NAME]\n"
      "       conga_serve verdict --report FILE --baseline FILE "
      "[--out FILE] [--tolerance X]\n");
  std::exit(2);
}

/// Resolves --campaign / --builtin into a request; defaults to the built-in
/// smoke campaign when neither is given.
bool load_campaign(const std::string& campaign_path,
                   const std::string& builtin, campaign::CampaignSpec& out,
                   std::string& err) {
  if (!campaign_path.empty() && !builtin.empty()) {
    err = "--campaign and --builtin are mutually exclusive";
    return false;
  }
  if (!campaign_path.empty()) {
    std::string text;
    if (!campaign::read_file(campaign_path, text)) {
      err = "cannot read " + campaign_path;
      return false;
    }
    return campaign::parse_campaign(text, out, err);
  }
  const std::string name = builtin.empty() ? "smoke" : builtin;
  if (name == "smoke") {
    out = campaign::make_smoke_campaign();
    return true;
  }
  err = "unknown builtin campaign '" + name + "' (available: smoke)";
  return false;
}

struct Args {
  campaign::SupervisorOptions sup;  ///< the --supervise policy
  std::string campaign_path;
  std::string builtin;
  std::string store_dir;
  std::string out_path;
  std::string stats_path;
  std::string baseline_path;
  std::string verdict_path;
  std::string report_path;
  std::vector<std::string> keep_fingerprints;
  double tolerance = 0.01;
  double verify_sample = 0.0;  ///< fraction, from --verify-sample percent
  int jobs = 1;
  std::int64_t tmp_age_seconds = 3600;
  bool supervise = false;
  bool verbose = false;
};

/// The subcommands, as bits: each flag names the ones that read it.
enum Command : unsigned {
  kRun = 1,
  kExpand = 2,
  kVerdict = 4,
  kStoreGc = 8,
  kStoreStat = 16,
};

/// Reads the flags after argv[0] into `a` for subcommand `cmd` (named
/// `name`); a usage error, including a flag that `cmd` does not read,
/// exits 2.
Args parse_args(int argc, char** argv, Command cmd, const std::string& name) {
  Args a;
  tools::FlagReader args(argc, argv, usage);
  args.each([&](const std::string& flag) {
    // Called first in each branch below with the subcommands that read it.
    const auto read_by = [&](unsigned cmds) {
      if ((cmds & cmd) == 0) {
        usage((name + " does not take " + flag).c_str());
      }
    };
    if (flag == "--campaign") {
      read_by(kRun | kExpand);
      a.campaign_path = args.text();
    } else if (flag == "--builtin") {
      read_by(kRun | kExpand);
      a.builtin = args.text();
    } else if (flag == "--store") {
      read_by(kRun | kStoreGc | kStoreStat);
      a.store_dir = args.text();
    } else if (flag == "--out") {
      read_by(kRun | kVerdict);
      a.out_path = args.text();
    } else if (flag == "--stats-out") {
      read_by(kRun);
      a.stats_path = args.text();
    } else if (flag == "--baseline") {
      read_by(kRun | kVerdict);
      a.baseline_path = args.text();
    } else if (flag == "--verdict-out") {
      read_by(kRun | kVerdict);
      a.verdict_path = args.text();
    } else if (flag == "--report") {
      read_by(kVerdict);
      a.report_path = args.text();
    } else if (flag == "--keep-fingerprints") {
      read_by(kStoreGc);
      for (std::string& token : args.list()) {
        if (token.empty()) continue;
        if (token == "current") token = campaign::code_fingerprint();
        a.keep_fingerprints.push_back(std::move(token));
      }
      if (a.keep_fingerprints.empty()) {
        usage("--keep-fingerprints wants a comma list of fingerprints");
      }
    } else if (flag == "--tolerance") {
      read_by(kRun | kVerdict);
      a.tolerance = args.number<double>(0.0);
    } else if (flag == "--verify-sample") {
      read_by(kRun);
      const double pct = args.number<double>();
      if (!(pct > 0.0) || pct > 100.0) {
        usage("--verify-sample wants a percentage in (0, 100]");
      }
      a.verify_sample = pct / 100.0;
    } else if (flag == "--jobs") {
      read_by(kRun);
      a.jobs = args.number<int>(1);
    } else if (flag == "--max-attempts") {
      read_by(kRun);
      a.sup.max_attempts = args.number<int>(1);
    } else if (flag == "--deadline-ms") {
      read_by(kRun);
      a.sup.deadline_ms = args.number<std::int64_t>(1);
    } else if (flag == "--backoff-base-ms") {
      read_by(kRun);
      a.sup.backoff_base_ms = args.number<std::int64_t>(1);
    } else if (flag == "--backoff-cap-ms") {
      read_by(kRun);
      a.sup.backoff_cap_ms = args.number<std::int64_t>(1);
    } else if (flag == "--drain-grace-ms") {
      read_by(kRun);
      a.sup.drain_grace_ms = args.number<std::int64_t>(0);
    } else if (flag == "--tmp-age-seconds") {
      read_by(kStoreGc);
      a.tmp_age_seconds = args.number<std::int64_t>(0);
    } else if (flag == "--supervise") {
      read_by(kRun);
      a.supervise = true;
    } else if (flag == "--verbose") {
      read_by(kRun);
      a.verbose = true;
    } else {
      return false;
    }
    return true;
  });
  return a;
}

int cmd_expand(const Args& a) {
  campaign::CampaignSpec spec;
  std::string err;
  if (!load_campaign(a.campaign_path, a.builtin, spec, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  const std::string fp = campaign::code_fingerprint();
  const std::vector<campaign::Cell> cells =
      campaign::expand_campaign(spec, fp);
  std::printf("campaign %s: %zu cells (fingerprint %s)\n", spec.name.c_str(),
              cells.size(), fp.c_str());
  for (const campaign::Cell& cell : cells) {
    std::printf("%s  %s/%s @ %d%% seeds=%llu/%llu fault=%s/%llu\n",
                cell.key.c_str(), cell.case_name.c_str(),
                cell.spec.policy.c_str(),
                static_cast<int>(cell.spec.load * 100.0 + 0.5),
                static_cast<unsigned long long>(cell.spec.fabric_seed),
                static_cast<unsigned long long>(cell.spec.traffic_seed),
                cell.spec.fault.profile.c_str(),
                static_cast<unsigned long long>(cell.spec.fault.seed));
  }
  return 0;
}

int make_and_emit_verdict(const campaign::Json& report,
                          const std::string& baseline_path,
                          const std::string& verdict_path, double tolerance) {
  std::string base_text;
  std::string err;
  if (!campaign::read_file(baseline_path, base_text)) {
    std::fprintf(stderr, "conga_serve: cannot read %s\n",
                 baseline_path.c_str());
    return 2;
  }
  campaign::Json baseline;
  if (!campaign::Json::parse(base_text, baseline, err)) {
    std::fprintf(stderr, "conga_serve: baseline: %s\n", err.c_str());
    return 2;
  }
  campaign::VerdictOptions vopts;
  vopts.rel_fct_tolerance = tolerance;
  campaign::Json verdict;
  if (!campaign::make_verdict(report, baseline, vopts, verdict, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  const std::string bytes = verdict.dump_pretty() + "\n";
  if (!verdict_path.empty()) {
    if (!campaign::write_file(verdict_path, bytes)) {
      std::fprintf(stderr, "conga_serve: cannot write %s\n",
                   verdict_path.c_str());
      return 2;
    }
  } else {
    std::fputs(bytes.c_str(), stdout);
  }
  const bool pass = campaign::verdict_pass(verdict);
  std::fprintf(stderr, "conga_serve: verdict %s (regressions=%llu)\n",
               pass ? "PASS" : "REGRESSION",
               static_cast<unsigned long long>(
                   verdict.find("regressions")->as_uint()));
  return pass ? 0 : 1;
}

int cmd_run(const Args& a) {
  campaign::CampaignSpec spec;
  std::string err;
  if (!load_campaign(a.campaign_path, a.builtin, spec, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  if (!a.verdict_path.empty() && a.baseline_path.empty()) {
    std::fprintf(stderr, "conga_serve: --verdict-out needs --baseline\n");
    return 2;
  }

  campaign::ResultStore store(a.store_dir);
  campaign::RunOptions opts;
  opts.jobs = a.jobs;
  opts.store = a.store_dir.empty() ? nullptr : &store;
  opts.verbose = a.verbose;

  campaign::CellExecutor execute = campaign::simulate_cell;
  if (a.supervise) {
    if (!campaign::supervised_executor(a.sup, &g_shutdown, execute, err)) {
      std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
      return 2;
    }
    std::signal(SIGTERM, on_shutdown_signal);
    std::signal(SIGINT, on_shutdown_signal);
  }
  campaign::CampaignRun run;
  if (!campaign::run_campaign(spec, opts, run, err, execute)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  if (run.drained) {
    std::fprintf(stderr,
                 "conga_serve: interrupted; completed cells are in the "
                 "store, no report written\n");
    return 2;
  }

  const std::string report_text = campaign::report_json(run);
  if (!a.out_path.empty()) {
    if (!campaign::write_file(a.out_path, report_text)) {
      std::fprintf(stderr, "conga_serve: cannot write %s\n",
                   a.out_path.c_str());
      return 2;
    }
  } else {
    std::fputs(report_text.c_str(), stdout);
  }

  // Cache statistics are run-dependent by design; they go to stderr and
  // --stats-out, never into the report (which must stay byte-identical
  // between cold and warm runs).
  const campaign::Json stats = campaign::stats_json(run.stats);
  std::fprintf(stderr, "conga_serve: %s\n", stats.dump().c_str());
  if (!a.stats_path.empty() &&
      !campaign::write_file(a.stats_path, stats.dump_pretty() + "\n")) {
    std::fprintf(stderr, "conga_serve: cannot write %s\n",
                 a.stats_path.c_str());
    return 2;
  }

  int status = 0;
  if (run.stats.failed > 0) {
    std::fprintf(stderr, "conga_serve: %zu cell(s) quarantined\n",
                 run.stats.failed);
    status = 1;
  }
  if (a.verify_sample > 0.0) {
    campaign::VerifyOutcome outcome;
    if (!campaign::verify_sample(run, a.verify_sample, a.jobs, nullptr,
                                 outcome, err)) {
      std::fprintf(stderr, "conga_serve: verify-sample: %s\n", err.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "conga_serve: verify-sample recomputed %zu hit(s), "
                 "%zu mismatch(es)\n",
                 outcome.sampled, outcome.mismatched);
    for (const std::string& key : outcome.poisoned_keys) {
      std::fprintf(stderr, "conga_serve: POISONED store entry %s\n",
                   key.c_str());
    }
    if (outcome.mismatched > 0) status = 1;
  }

  if (!a.baseline_path.empty()) {
    campaign::Json report;
    if (!campaign::Json::parse(report_text, report, err)) {
      std::fprintf(stderr, "conga_serve: internal: report unparseable: %s\n",
                   err.c_str());
      return 2;
    }
    const int verdict_status = make_and_emit_verdict(
        report, a.baseline_path, a.verdict_path, a.tolerance);
    if (verdict_status != 0) status = verdict_status == 2 ? 2 : 1;
  }
  return status;
}

int cmd_verdict(const Args& a) {
  if (a.report_path.empty() || a.baseline_path.empty()) {
    std::fprintf(stderr,
                 "conga_serve: verdict needs --report and --baseline\n");
    return 2;
  }
  std::string report_text;
  std::string err;
  if (!campaign::read_file(a.report_path, report_text)) {
    std::fprintf(stderr, "conga_serve: cannot read %s\n",
                 a.report_path.c_str());
    return 2;
  }
  campaign::Json report;
  if (!campaign::Json::parse(report_text, report, err)) {
    std::fprintf(stderr, "conga_serve: report: %s\n", err.c_str());
    return 2;
  }
  // For the offline subcommand --out and --verdict-out are synonyms.
  return make_and_emit_verdict(
      report, a.baseline_path,
      a.verdict_path.empty() ? a.out_path : a.verdict_path, a.tolerance);
}

/// Hidden child entry point: one cell, request on stdin, response on stdout.
int cmd_cell() {
  std::string request;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
    request.append(buf, n);
  }
  std::string response;
  std::string diag;
  const int code = campaign::cell_main(request, response, diag);
  if (!diag.empty()) std::fprintf(stderr, "conga_serve: %s\n", diag.c_str());
  std::fwrite(response.data(), 1, response.size(), stdout);
  std::fflush(stdout);
  return code;
}

int cmd_store_gc(const Args& a) {
  if (a.store_dir.empty()) {
    std::fprintf(stderr, "conga_serve: store gc needs --store DIR\n");
    return 2;
  }
  campaign::ResultStore store(a.store_dir);
  campaign::ResultStore::GcOptions gc;
  gc.tmp_age_seconds = a.tmp_age_seconds;
  gc.keep_fingerprints = a.keep_fingerprints;
  campaign::ResultStore::GcStats stats;
  std::string err;
  if (!store.gc(gc, stats, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "conga_serve: gc removed %llu tmp file(s) and %llu "
               "entrie(s), reclaimed %llu bytes (kept %llu tmp, %llu "
               "entries)\n",
               static_cast<unsigned long long>(stats.tmp_removed),
               static_cast<unsigned long long>(stats.entries_removed),
               static_cast<unsigned long long>(stats.bytes_reclaimed),
               static_cast<unsigned long long>(stats.tmp_kept),
               static_cast<unsigned long long>(stats.entries_kept));
  return 0;
}

int cmd_store_stat(const Args& a) {
  if (a.store_dir.empty()) {
    std::fprintf(stderr, "conga_serve: store stat needs --store DIR\n");
    return 2;
  }
  campaign::ResultStore store(a.store_dir);
  campaign::ResultStore::StoreStat st;
  std::string err;
  if (!store.stat(st, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  std::printf("%s\n", campaign::store_stat_json(st).dump_pretty().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];

  if (cmd == "cell") return cmd_cell();

  if (cmd == "store") {
    if (argc < 3) usage("store needs a subcommand (gc, stat)");
    const std::string sub = argv[2];
    const std::string name = "store " + sub;
    if (sub == "gc") {
      return cmd_store_gc(parse_args(argc - 2, argv + 2, kStoreGc, name));
    }
    if (sub == "stat") {
      return cmd_store_stat(parse_args(argc - 2, argv + 2, kStoreStat, name));
    }
    usage(("unknown store subcommand '" + sub + "'").c_str());
  }

  if (cmd == "run") {
    Args a = parse_args(argc - 1, argv + 1, kRun, cmd);
    a.sup.exe = campaign::self_exe_path(argv[0]);
    if (const char* fault = std::getenv("CONGA_CELL_FAULT")) {
      a.sup.fault_spec = fault;
    }
    return cmd_run(a);
  }
  if (cmd == "expand") {
    return cmd_expand(parse_args(argc - 1, argv + 1, kExpand, cmd));
  }
  if (cmd == "verdict") {
    return cmd_verdict(parse_args(argc - 1, argv + 1, kVerdict, cmd));
  }
  usage(("unknown subcommand '" + cmd + "'").c_str());
}
