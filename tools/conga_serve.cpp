// conga_serve — the campaign CLI.
//
// A campaign is a declarative sweep request (scenario family x policy x load
// x seed x fault grid). conga_serve expands it into content-addressed cells,
// reuses every cell the store already has for this exact code, simulates
// only the misses, and writes a conga-campaign-v2 report that is
// byte-identical whether it came from a cold run, a warm run, or a killed
// run and its rerun: each cell is stored as soon as it finishes, so a kill
// loses only the cells in flight. Cache statistics go to --stats-out /
// stderr, never into the report.
//
// Subcommands:
//   run     execute a campaign incrementally
//           --campaign FILE | --builtin NAME   the request (JSON / built-in)
//           --store DIR                        content-addressed result store
//           --jobs N                           worker threads (default 1)
//           --out FILE                         report (default stdout)
//           --stats-out FILE                   cache statistics JSON
//           --verify-sample PCT                recompute PCT% of cache hits;
//                                              any divergence is a poisoned
//                                              store and exits nonzero
//           --verbose                          per-cell progress on stderr
//   expand  print the cell grid (coordinates and cache keys), no simulation
//           --campaign FILE | --builtin NAME
//   verdict compare two reports offline
//           --report FILE --baseline FILE [--out FILE] [--tolerance X]
//
// Each subcommand takes only the flags listed for it above; any other flag
// is a usage error. The store is a cache: delete its directory, or its tmp/
// while no run is active, and the next run recomputes what it needs.
//
// Exit status: 0 success; 1 regression verdict or store poisoning; 2 usage
// or I/O error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/store.hpp"
#include "cli_flags.hpp"

using namespace conga;

namespace {

/// Prints `msg` (when given) and the usage text, then exits 2.
[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "conga_serve: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: conga_serve run    [--campaign FILE | --builtin NAME] "
      "[--store DIR]\n"
      "                          [--jobs N] [--out FILE] [--stats-out FILE]\n"
      "                          [--verify-sample PCT] [--verbose]\n"
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
  std::string campaign_path;
  std::string builtin;
  std::string store_dir;
  std::string out_path;
  std::string stats_path;
  std::string baseline_path;
  std::string report_path;
  double tolerance = 0.01;
  double verify_sample = 0.0;  ///< fraction, from --verify-sample percent
  int jobs = 1;
  bool verbose = false;
};

/// The subcommands, as bits: each flag names the ones that read it.
enum Command : unsigned {
  kRun = 1,
  kExpand = 2,
  kVerdict = 4,
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
      read_by(kRun);
      a.store_dir = args.text();
    } else if (flag == "--out") {
      read_by(kRun | kVerdict);
      a.out_path = args.text();
    } else if (flag == "--stats-out") {
      read_by(kRun);
      a.stats_path = args.text();
    } else if (flag == "--baseline") {
      read_by(kVerdict);
      a.baseline_path = args.text();
    } else if (flag == "--verdict-out") {
      read_by(0);  // retired: the verdict goes to verdict's --out
    } else if (flag == "--report") {
      read_by(kVerdict);
      a.report_path = args.text();
    } else if (flag == "--tolerance") {
      read_by(kVerdict);
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

int cmd_run(const Args& a) {
  campaign::CampaignSpec spec;
  std::string err;
  if (!load_campaign(a.campaign_path, a.builtin, spec, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }

  campaign::ResultStore store(a.store_dir);
  campaign::RunOptions opts;
  opts.jobs = a.jobs;
  opts.store = a.store_dir.empty() ? nullptr : &store;
  opts.verbose = a.verbose;

  campaign::CampaignRun run;
  if (!campaign::run_campaign(spec, opts, run, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
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

  if (!(a.verify_sample > 0.0)) return 0;
  campaign::VerifyOutcome outcome;
  if (!campaign::verify_sample(run, a.verify_sample, a.jobs, outcome, err)) {
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
  return outcome.mismatched > 0 ? 1 : 0;
}

/// Reads and parses the JSON document at `path` (`what` names it in
/// errors); false after printing why.
bool read_document(const std::string& path, const char* what,
                   campaign::Json& out) {
  std::string text;
  std::string err;
  if (!campaign::read_file(path, text)) {
    std::fprintf(stderr, "conga_serve: cannot read %s\n", path.c_str());
    return false;
  }
  if (!campaign::Json::parse(text, out, err)) {
    std::fprintf(stderr, "conga_serve: %s: %s\n", what, err.c_str());
    return false;
  }
  return true;
}

int cmd_verdict(const Args& a) {
  if (a.report_path.empty() || a.baseline_path.empty()) {
    std::fprintf(stderr,
                 "conga_serve: verdict needs --report and --baseline\n");
    return 2;
  }
  campaign::Json report;
  campaign::Json baseline;
  if (!read_document(a.report_path, "report", report) ||
      !read_document(a.baseline_path, "baseline", baseline)) {
    return 2;
  }
  campaign::VerdictOptions vopts;
  vopts.rel_fct_tolerance = a.tolerance;
  campaign::Json verdict;
  std::string err;
  if (!campaign::make_verdict(report, baseline, vopts, verdict, err)) {
    std::fprintf(stderr, "conga_serve: %s\n", err.c_str());
    return 2;
  }
  const std::string bytes = verdict.dump_pretty() + "\n";
  if (!a.out_path.empty()) {
    if (!campaign::write_file(a.out_path, bytes)) {
      std::fprintf(stderr, "conga_serve: cannot write %s\n",
                   a.out_path.c_str());
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];

  if (cmd == "run") {
    return cmd_run(parse_args(argc - 1, argv + 1, kRun, cmd));
  }
  if (cmd == "expand") {
    return cmd_expand(parse_args(argc - 1, argv + 1, kExpand, cmd));
  }
  if (cmd == "verdict") {
    return cmd_verdict(parse_args(argc - 1, argv + 1, kVerdict, cmd));
  }
  usage(("unknown subcommand '" + cmd + "'").c_str());
}
