// End-to-end CLI tests for the spec-driven tools, driving the real binaries
// (CONGA_SIM_BIN, CHAOS_AUDIT_BIN, CONGA_TRACE_BIN, DETERMINISM_AUDIT_BIN,
// and EXT_LB_COMPARISON_BIN and FIG08_WORKLOAD_CDFS_BIN for the bench
// flags):
// flags that a campaign spec would reject — a load outside (0, 1], an
// unparseable fixed size, an unknown distribution or policy, an empty window
// or host count — and numeric flags that are not one whole number exit 2
// promptly with a message instead of running (or wedging, or aborting) a
// simulation, while the documented flag spellings still run and flag order
// does not change what runs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace {

namespace fs = std::filesystem;

constexpr const char* kSim = CONGA_SIM_BIN;
constexpr const char* kChaos = CHAOS_AUDIT_BIN;
constexpr const char* kTrace = CONGA_TRACE_BIN;
constexpr const char* kAudit = DETERMINISM_AUDIT_BIN;
constexpr const char* kLbComparison = EXT_LB_COMPARISON_BIN;
constexpr const char* kFig08 = FIG08_WORKLOAD_CDFS_BIN;

struct Outcome {
  int exit_code = -1;  ///< 124 when `timeout` had to kill the run
  std::string out;
  std::string err;
};

/// The first 64 KiB of `path`, which is then removed.
std::string take_file(const fs::path& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[65536];
    text.assign(buf, std::fread(buf, 1, sizeof(buf), f));
    std::fclose(f);
  }
  std::error_code ec;
  fs::remove(path, ec);
  return text;
}

/// Runs `bin` with `flags` under a 10 s timeout; captures stdout and stderr.
Outcome run_tool(const char* bin, const std::string& flags) {
  const fs::path base =
      fs::temp_directory_path() /
      ("conga_sim_cli_test." + std::to_string(::getpid()));
  const fs::path out_path = base.string() + ".out";
  const fs::path err_path = base.string() + ".err";
  const std::string cmd = "timeout 10 " + std::string(bin) + " " + flags +
                          " >" + out_path.string() + " 2>" +
                          err_path.string();
  const int st = std::system(cmd.c_str());
  Outcome out;
  if (st != -1 && WIFEXITED(st)) out.exit_code = WEXITSTATUS(st);
  out.out = take_file(out_path);
  out.err = take_file(err_path);
  return out;
}

// A few milliseconds of a shrunken testbed: valid runs finish in well under
// a second, so only a rejected flag can explain a fast exit 2.
const std::string kSmall = "--hosts 4 --warmup-ms 1 --duration-ms 2 ";

void expect_tool_rejected(const char* bin, const std::string& flags,
                          const std::string& message) {
  const Outcome o = run_tool(bin, flags);
  EXPECT_EQ(o.exit_code, 2) << flags << "\n" << o.err;
  EXPECT_NE(o.err.find(message), std::string::npos) << flags << "\n" << o.err;
}

void expect_rejected(const std::string& flags, const std::string& message) {
  expect_tool_rejected(kSim, kSmall + flags, message);
}

TEST(SimCli, RejectsLoadOutsideUnitInterval) {
  expect_rejected("--load 0", "load must be in (0, 1]");
  expect_rejected("--load 1.5", "load must be in (0, 1]");
  expect_rejected("--load -0.2", "load must be in (0, 1]");
}

TEST(SimCli, RejectsBadDistributions) {
  expect_rejected("--workload fixed:abc", "bad fixed distribution");
  // Each used to be parsed leniently: "500abc" ran as 500 B under its own
  // cache key, "1e400" made every flow infinite and never finished, and
  // "0x10" was read as hex.
  expect_rejected("--workload fixed:500abc", "bad fixed distribution");
  expect_rejected("--workload fixed:1e400", "bad fixed distribution");
  expect_rejected("--workload fixed:0x10", "bad fixed distribution");
  expect_rejected("--workload pareto", "unknown distribution");
}

TEST(SimCli, RejectsUnknownPolicyAndEmptyWindow) {
  expect_rejected("--lb nope", "unknown policy 'nope'");
  expect_rejected("--load 0.3 --duration-ms 0", "windows must be");
  expect_rejected("--load 0.3 --transport mptcp --subflows 0",
                  "--subflows must be >= 1");
}

TEST(SimCli, RejectsRtoFloorOutsideRange) {
  // Each used to run: 0 and -5 with a negative RTO granularity, and a floor
  // above the 60 s RTO ceiling with crossed clamp bounds.
  expect_rejected("--load 0.3 --min-rto-ms 0", "min_rto must be in (0, 60 s]");
  expect_rejected("--load 0.3 --min-rto-ms -5",
                  "min_rto must be in (0, 60 s]");
  expect_rejected("--load 0.3 --min-rto-ms 60001",
                  "min_rto must be in (0, 60 s]");
}

TEST(SimCli, RejectsMalformedNumbers) {
  // Each used to be read as a prefix ("2x" as 2, "abc" as seed 0) and run.
  expect_rejected("--load 0.3 --hosts 2x", "--hosts wants a number");
  expect_rejected("--load 0.3 --seed abc", "--seed wants a number");
  expect_rejected("--load 0.3x", "--load wants a number");
}

TEST(DeterminismAuditCli, RejectsMalformedNumbers) {
  expect_tool_rejected(kAudit, "--duration-ms 2.9",
                       "--duration-ms wants a number");
  expect_tool_rejected(kAudit, "--seed -1", "--seed wants a number");
}

TEST(BenchCli, RejectsMalformedNumbers) {
  // --jobs is the flag of every bench that runs cells in parallel
  // (bench_util.hpp): "abc" used to fall back to the default worker count,
  // and "--load 10x" ran the 10% point.
  expect_tool_rejected(kLbComparison, "--jobs abc", "--jobs wants a number");
  expect_tool_rejected(kLbComparison, "--load 10x", "bad --load 10x");
}

TEST(ToolCli, RejectsFlagsItDoesNotTake) {
  // Each bench case used to be ignored: the bench ran its default table and
  // exited 0. fig08 runs no cells in parallel, so --jobs is not its flag.
  expect_tool_rejected(kFig08, "--bogus", "unknown flag: --bogus");
  expect_tool_rejected(kFig08, "--jobs abc", "unknown flag: --jobs");
  expect_tool_rejected(kLbComparison, "--bogus", "unknown flag: --bogus");
  // JSONL is the one trace format; the CSV export is gone.
  expect_tool_rejected(kTrace, "record --csv X --out /dev/null",
                       "unknown record flag: --csv");
}

TEST(SimCli, DocumentedSpellingsStillRun) {
  for (const char* flags :
       {"--workload enterprise", "--workload data-mining",
        "--workload web-search", "--workload fixed:20000",
        "--transport mptcp --lb ecmp", "--transport dctcp --lb drill"}) {
    const Outcome o = run_tool(kSim, kSmall + "--load 0.3 " + flags);
    EXPECT_EQ(o.exit_code, 0) << flags << "\n" << o.err;
  }
}

TEST(SimCli, RejectsBadTopologySizes) {
  // Each used to be dropped silently, running the 32-host 2x2 preset.
  expect_rejected("--load 0.3 --hosts 0", "hosts_per_leaf must be >= 1");
  expect_rejected("--load 0.3 --leaves -3", "num_leaves must be >= 1");
  expect_rejected("--load 0.3 --spines 0", "num_spines must be >= 1");
  expect_rejected("--load 0.3 --parallel 0", "links_per_spine must be >= 1");
  // 0 keeps meaning "off / transport default"; a negative size is an error.
  expect_rejected("--load 0.3 --ecn-kb -5", "--ecn-kb must be >= 0");
  expect_rejected("--load 0.3 --shared-buffer-mb -1",
                  "--shared-buffer-mb must be >= 0");
}

TEST(SimCli, RejectsMalformedFail) {
  // sscanf used to read the leading fields and drop the junk after them.
  for (const char* fail : {"1:1:0junk", "1:1:0:0.5x", "1:1", "1:1:0:0.5:2",
                           "1::0", "a:1:0"}) {
    expect_rejected(std::string("--load 0.3 --fail ") + fail,
                    "--fail expects L:S:P[:factor]");
  }
  expect_rejected("--load 0.3 --fail 5:0:0", "override: leaf out of range");
  expect_rejected("--load 0.3 --fail 0:1:7",
                  "override: parallel index out of range");
}

TEST(SimCli, FlagOrderIsIrrelevant) {
  // --topology names the preset the other flags edit, wherever it stands.
  const std::string flags = "--warmup-ms 1 --duration-ms 2 --load 0.3 ";
  const Outcome hosts_first =
      run_tool(kSim, flags + "--hosts 4 --parallel 3 --topology failure");
  const Outcome preset_first =
      run_tool(kSim, flags + "--topology failure --hosts 4 --parallel 3");
  ASSERT_EQ(hosts_first.exit_code, 0) << hosts_first.err;
  ASSERT_EQ(preset_first.exit_code, 0) << preset_first.err;
  EXPECT_NE(hosts_first.out.find("2 leaves x 2 spines x 3 links, 4 hosts/leaf, "
                                 "1 link overrides"),
            std::string::npos)
      << hosts_first.out;
  EXPECT_EQ(hosts_first.out, preset_first.out);
}

TEST(SimCli, ValueFlagGivenLastNeedsAValue) {
  expect_tool_rejected(kSim, "--load", "flag needs a value");
  expect_tool_rejected(kAudit, "--lb", "flag needs a value");
  expect_tool_rejected(kChaos, "--out", "flag needs a value");
  // Used to be dropped silently, running the sweep without a report.
  expect_tool_rejected(kLbComparison, "--load 10 --out", "flag needs a value");
  expect_tool_rejected(kTrace, "record --cats", "flag needs a value");
  expect_tool_rejected(kTrace, "slice /dev/null --cat", "flag needs a value");
  // Used to be reported as an unknown percentiles flag.
  expect_tool_rejected(kTrace, "percentiles /dev/null --comp",
                       "flag needs a value");
}

// One small campaign of one policy: a valid audit finishes in about a
// second, and nothing is written when a flag is rejected.
const std::string kSmallAudit =
    "--campaigns 1 --lb ecmp --warmup-ms 1 --duration-ms 2 --out /dev/null ";

TEST(ChaosAuditCli, RejectsFlagsTheSpecRejects) {
  // A zero load used to wedge the arrival process until the timeout, a
  // zero host count aborted on an uncaught exception, and the others ran
  // and reported PASSED.
  expect_tool_rejected(kChaos, kSmallAudit + "--load 0",
                       "load must be in (0, 1]");
  expect_tool_rejected(kChaos, kSmallAudit + "--load 1.5",
                       "load must be in (0, 1]");
  expect_tool_rejected(kChaos, kSmallAudit + "--hosts 0",
                       "topo: hosts_per_leaf must be >= 1");
  expect_tool_rejected(kChaos, kSmallAudit + "--duration-ms 0",
                       "windows must be");
  expect_tool_rejected(kChaos, kSmallAudit + "--drain-ms -5",
                       "windows must be");
  expect_tool_rejected(kChaos, kSmallAudit + "--hosts 2x",
                       "--hosts wants a number");
  // Both used to run, printing jobs=-5 and jobs=0.
  expect_tool_rejected(kChaos, kSmallAudit + "--jobs -5",
                       "--jobs must be >= 1");
  expect_tool_rejected(kChaos, kSmallAudit + "--jobs 0",
                       "--jobs must be >= 1");
}

TEST(ChaosAuditCli, SmallAuditPasses) {
  const Outcome o = run_tool(kChaos, kSmallAudit + "--hosts 4");
  EXPECT_EQ(o.exit_code, 0) << o.err;
}

TEST(TraceCli, RecordRejectsRunsTooShortToMeasure) {
  // The hotspot sampler starts at 10 ms: a 5 ms run used to print an
  // all-zero percentile row.
  expect_tool_rejected(kTrace, "record --stop-ms 5 --out /dev/null",
                       "windows must be");
  expect_tool_rejected(kTrace, "record --lb nope --out /dev/null",
                       "unknown policy 'nope'");
}

TEST(TraceCli, RecordRejectsMalformedNumbers) {
  expect_tool_rejected(kTrace, "record --stop-ms 20x --out /dev/null",
                       "--stop-ms wants a number");
}

/// The count after `label` in `text` (e.g. "recorded=" -> 549422), or -1.
long long count_after(const std::string& text, const std::string& label) {
  const std::size_t at = text.find(label);
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + label.size());
}

/// The sum of the counts in summary's "by <what>:" block.
long long block_total(const std::string& summary, const std::string& what) {
  std::size_t at = summary.find("by " + what + ":\n");
  if (at == std::string::npos) return -1;
  at = summary.find('\n', at) + 1;
  long long total = 0;
  while (at < summary.size() && summary.compare(at, 2, "  ") == 0) {
    const std::size_t end = summary.find('\n', at);
    total += std::atoll(summary.c_str() + summary.rfind(' ', end) + 1);
    at = end + 1;
  }
  return total;
}

TEST(TraceCli, OfflineAnalysesAgreeWithTheRecordedTrace) {
  const fs::path trace =
      fs::temp_directory_path() /
      ("conga_trace_cli_test." + std::to_string(::getpid()) + ".jsonl");
  const Outcome rec = run_tool(
      kTrace, "record --stop-ms 15 --ring 64 --out " + trace.string());
  ASSERT_EQ(rec.exit_code, 0) << rec.err;
  const bool events_on =
      rec.out.find("CONGA_TELEMETRY=OFF") == std::string::npos;

  // summary: the exported events are the recorded ones the ring kept, and
  // every one is counted once by category and once by type.
  const Outcome sum = run_tool(kTrace, "summary " + trace.string());
  ASSERT_EQ(sum.exit_code, 0) << sum.err;
  // The line after the meta line: "<n> exported events, ...".
  const long long exported =
      std::atoll(sum.out.c_str() + sum.out.find('\n') + 1);
  EXPECT_EQ(exported, count_after(sum.out, "recorded=") -
                          count_after(sum.out, "overwritten="))
      << sum.out;
  EXPECT_EQ(block_total(sum.out, "category"), exported) << sum.out;
  EXPECT_EQ(block_total(sum.out, "type"), exported) << sum.out;
  const long long gauges = count_after(sum.out, "gauge_sample");
  EXPECT_EQ(gauges > 0, events_on) << sum.out;

  // slice --type passes exactly the lines of that type, as written.
  const Outcome slice =
      run_tool(kTrace, "slice " + trace.string() + " --type gauge_sample");
  ASSERT_EQ(slice.exit_code, 0) << slice.err;
  long long lines = 0;
  for (std::size_t at = 0, end = 0;
       (end = slice.out.find('\n', at)) != std::string::npos; at = end + 1) {
    ++lines;
    const std::string line = slice.out.substr(at, end - at);
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_NE(line.find(",\"type\":\"gauge_sample\","), std::string::npos)
        << line;
  }
  EXPECT_EQ(lines, std::max(gauges, 0LL));

  // percentiles reads every gauge sample.
  const Outcome pct = run_tool(kTrace, "percentiles " + trace.string());
  if (events_on) {
    EXPECT_EQ(pct.exit_code, 0) << pct.err;
    EXPECT_EQ(pct.out.rfind(std::to_string(gauges) + " samples\n", 0), 0u)
        << pct.out;
  } else {
    EXPECT_EQ(pct.exit_code, 2) << pct.err;
  }
  std::error_code ec;
  fs::remove(trace, ec);
}

}  // namespace
