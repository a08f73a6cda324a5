// End-to-end CLI tests for conga_serve, driving the real binary
// (CONGA_SERVE_BIN): supervised containment of crashing and hanging cells,
// SIGTERM drain and SIGKILL followed by a resuming rerun, a hanging child
// orphaned under a subreaper, store gc/stat maintenance, graceful store
// degradation, the documented 0/1/2 exit codes, the in-process and
// supervised executors agreeing cell for cell, the supervisor's events in
// cell order, and the pinned request in tests/data expanding to its pinned
// cell keys.
//
// Every scenario that needs a child failure injects it deterministically
// through CONGA_CELL_FAULT; nothing here depends on timing beyond "a
// hanging child does not finish on its own".
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/json.hpp"
#include "campaign/store.hpp"
#include "campaign/supervisor.hpp"
#include "net/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::campaign {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBin = CONGA_SERVE_BIN;
constexpr const char* kDataDir = CONGA_TEST_DATA_DIR;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("conga_serve_cli_test." + tag + "." +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const {
    return (path / name).string();
  }
};

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  out.clear();
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Runs a shell command to completion; returns its exit code (-1 if it
/// died on a signal).
int run_cmd(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  if (st == -1) return -1;
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

/// Launches a shell command as a direct child (sh exec's the binary, so
/// signals sent to the returned pid reach conga_serve itself).
pid_t spawn_cmd(const std::string& cmd) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", ("exec " + cmd).c_str(),
            static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  return pid;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (pred()) return true;
    ::usleep(50 * 1000);
  }
  return pred();
}

/// A fast campaign request: one shrunken-testbed case, `policies` cells.
void write_tiny_request(const std::string& path,
                        const std::vector<std::string>& policies) {
  CampaignSpec c;
  c.name = "tiny";
  c.policies = policies;
  c.loads_pct = {30};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  c.cases.push_back({"t", topo});
  c.warmup_ns = sim::milliseconds(1);
  c.measure_ns = sim::milliseconds(2);
  c.max_drain_ns = sim::milliseconds(300);
  write_file(path, json_of_campaign(c).dump() + "\n");
}

Json parse_or_die(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text)) << path;
  Json doc;
  std::string err;
  EXPECT_TRUE(Json::parse(text, doc, err)) << path << ": " << err;
  return doc;
}

/// report "cells" entries indexed by cache key, serialized — the unit of
/// the "undisturbed cells are byte-identical" comparisons.
std::vector<std::pair<std::string, std::string>> cells_by_key(
    const Json& report) {
  std::vector<std::pair<std::string, std::string>> out;
  const Json* cells = report.find("cells");
  if (cells == nullptr) return out;
  for (const Json& e : cells->items()) {
    out.emplace_back(e.find("key")->as_string(), e.dump());
  }
  return out;
}

TEST(ServeCli, ExitCodesAndErrorReporting) {
  TempDir tmp("exitcodes");
  const std::string err_path = tmp.sub("err.txt");
  std::string err_text;

  // 0: success.
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " expand --builtin smoke >/dev/null 2>/dev/null"),
            0);

  // 2: unknown subcommand, named in the error.
  EXPECT_EQ(run_cmd(std::string(kBin) + " frobnicate >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown subcommand 'frobnicate'"),
            std::string::npos)
      << err_text;

  // 2: unknown flag, named in the error.
  EXPECT_EQ(run_cmd(std::string(kBin) + " run --bogus >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown flag: --bogus"), std::string::npos)
      << err_text;

  // 2: a numeric flag that is not one whole number (this one used to be
  // read as --jobs 4 and run the campaign).
  EXPECT_EQ(run_cmd(std::string(kBin) + " run --jobs 4x >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("--jobs wants a number, got '4x'"),
            std::string::npos)
      << err_text;

  // 2: a flag the subcommand does not read (these used to exit 0 and
  // silently ignore it), named in the error.
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " expand --builtin smoke --supervise --jobs 4"
                    " --deadline-ms 5 >/dev/null 2>" + err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("expand does not take --supervise"),
            std::string::npos)
      << err_text;
  EXPECT_EQ(run_cmd(std::string(kBin) + " store stat --store " +
                    tmp.sub("store") + " --verify-sample 50 >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("store stat does not take --verify-sample"),
            std::string::npos)
      << err_text;

  // 2: a bound on a real-valued flag reads as typed, not "0.000000".
  EXPECT_EQ(run_cmd(std::string(kBin) + " run --tolerance -1 >/dev/null 2>" +
                    err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("--tolerance must be >= 0\n"), std::string::npos)
      << err_text;

  // 2: missing required value / bad subcommand of store.
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " store frobnicate >/dev/null 2>" + err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("unknown store subcommand 'frobnicate'"),
            std::string::npos)
      << err_text;
  EXPECT_EQ(run_cmd(std::string(kBin) + " store gc 2>/dev/null"), 2);

  // 1: a quarantined cell fails the run without killing it.
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp"});
  EXPECT_EQ(run_cmd("CONGA_CELL_FAULT=crash:0 " + std::string(kBin) +
                    " run --campaign " + req +
                    " --supervise --max-attempts 1 --backoff-base-ms 20"
                    " --backoff-cap-ms 50 >/dev/null 2>/dev/null"),
            1);
}

// Every cell key of a request covering pods, core and link overrides,
// MPTCP and a gray fault, under a fixed fingerprint: a change to any
// document's field table or canonical bytes shows up as a diff here.
TEST(ServeCli, PinnedRequestExpandsToPinnedKeys) {
  TempDir tmp("pinned");
  const std::string out = tmp.sub("expand.txt");
  const std::string data = kDataDir;
  ASSERT_EQ(run_cmd("CONGA_CODE_FINGERPRINT=ci-pinned " + std::string(kBin) +
                    " expand --campaign " + data +
                    "/pinned_request.json >" + out),
            0);
  std::string got;
  std::string want;
  ASSERT_TRUE(read_file(out, got));
  ASSERT_TRUE(read_file(data + "/pinned_expand.txt", want));
  EXPECT_EQ(got, want);
}

TEST(ServeCli, ContainmentCrashAndHang) {
  TempDir tmp("containment");
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp", "conga", "letflow"});

  // Reference: the same request, undisturbed.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + tmp.sub("refstore") +
                    " --out " + ref_report + " 2>/dev/null"),
            0);

  // Faulted: cell 0 aborts on every attempt, cell 1 hangs on every attempt.
  const std::string store = tmp.sub("store");
  const std::string report = tmp.sub("report.json");
  const std::string stats = tmp.sub("stats.json");
  ASSERT_EQ(
      run_cmd("CONGA_CELL_FAULT=crash:0,hang:1 " + std::string(kBin) +
              " run --campaign " + req + " --supervise --store " + store +
              " --out " + report + " --stats-out " + stats +
              " --jobs 2 --deadline-ms 1500 --max-attempts 2"
              " --backoff-base-ms 20 --backoff-cap-ms 100 2>/dev/null"),
      1);

  // The supervisor survived and wrote a complete report with an explicit
  // failed_cells block.
  const Json rep = parse_or_die(report);
  const Json* failed = rep.find("failed_cells");
  ASSERT_NE(failed, nullptr);
  ASSERT_EQ(failed->items().size(), 2u);
  const Json& crash = failed->items()[0];
  EXPECT_EQ(crash.find("coordinate")->as_string(), "t|ecmp|30|1|7|none|1");
  EXPECT_EQ(crash.find("outcome")->as_string(), "signal");
  EXPECT_EQ(crash.find("signal")->as_int(), SIGABRT);
  EXPECT_EQ(crash.find("attempts")->as_int(), 2);
  const Json& hang = failed->items()[1];
  EXPECT_EQ(hang.find("coordinate")->as_string(), "t|conga|30|1|7|none|1");
  EXPECT_EQ(hang.find("outcome")->as_string(), "timeout");
  EXPECT_EQ(hang.find("attempts")->as_int(), 2);

  // Quarantine poison records exist and carry the attempt log, including
  // the deterministic backoff the supervisor actually used.
  for (const Json& f : failed->items()) {
    const std::string qpath = f.find("quarantine")->as_string();
    ASSERT_FALSE(qpath.empty());
    const Json q = parse_or_die(qpath);
    EXPECT_EQ(q.find("schema")->as_string(), "conga-quarantine-v1");
    EXPECT_EQ(q.find("key")->as_string(), f.find("key")->as_string());
    ASSERT_EQ(q.find("attempts")->items().size(), 2u);
    SupervisorOptions bopts;
    bopts.backoff_base_ms = 20;
    bopts.backoff_cap_ms = 100;
    EXPECT_EQ(q.find("attempts")->items()[0].find("backoff_ms")->as_int(),
              backoff_delay_ms(f.find("key")->as_string(), 1, bopts));
  }

  // The undisturbed cell is byte-identical to the reference run's.
  const auto ref_cells = cells_by_key(parse_or_die(ref_report));
  const auto got_cells = cells_by_key(rep);
  ASSERT_EQ(ref_cells.size(), 3u);
  ASSERT_EQ(got_cells.size(), 1u);
  bool matched = false;
  for (const auto& [key, bytes] : ref_cells) {
    if (key == got_cells[0].first) {
      EXPECT_EQ(bytes, got_cells[0].second);
      matched = true;
    }
  }
  EXPECT_TRUE(matched);

  // Stats tell the failure story.
  const Json st = parse_or_die(stats);
  EXPECT_EQ(st.find("failed")->as_uint(), 2u);
  EXPECT_EQ(st.find("retries")->as_uint(), 2u);
  EXPECT_EQ(st.find("timeouts")->as_uint(), 2u);
  EXPECT_EQ(st.find("store")->as_string(), "ok");
}

std::size_t store_entries(const std::string& store) {
  ResultStore rs(store);
  ResultStore::StoreStat st;
  std::string err;
  return rs.stat(st, err) ? st.entries : 0;
}

// Interrupting a supervised run never costs finished work: SIGTERM drains
// (exit 2, "interrupted", no report), SIGKILL leaves only whole store
// entries, and in both cases a rerun on the same store reuses the finished
// cells and writes the report an uninterrupted run writes.
struct InterruptedRun {
  TempDir tmp;
  std::string req;
  std::string ref_bytes;

  explicit InterruptedRun(const std::string& tag)
      : tmp(tag), req(tmp.sub("req.json")) {
    write_tiny_request(req, {"ecmp", "conga", "letflow"});
    const std::string ref_report = tmp.sub("ref.json");
    EXPECT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                      " --supervise --store " + tmp.sub("refstore") +
                      " --out " + ref_report + " 2>/dev/null"),
              0);
    EXPECT_TRUE(read_file(ref_report, ref_bytes));
  }

  std::string store() const { return tmp.sub("run.store"); }
  std::string report() const { return tmp.sub("run.report.json"); }

  // Cell 2 hangs (deadline far away); returns once cells 0 and 1 are stored.
  pid_t start_hung_run() const {
    const pid_t pid = spawn_cmd(
        "env CONGA_CELL_FAULT=hang:2 " + std::string(kBin) +
        " run --campaign " + req + " --supervise --store " + store() +
        " --out " + report() +
        " --deadline-ms 60000 --drain-grace-ms 300 2>" + tmp.sub("run.err"));
    EXPECT_GT(pid, 0);
    EXPECT_TRUE(wait_until([&] { return store_entries(store()) >= 2; },
                           60000));
    return pid;
  }

  // Rerun without the fault: byte-identical report, the two stored cells
  // come back as hits and only the interrupted one is recomputed.
  void expect_rerun_matches_reference() const {
    const std::string stats = tmp.sub("rerun.stats.json");
    ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                      " --supervise --store " + store() + " --out " +
                      report() + " --stats-out " + stats + " 2>/dev/null"),
              0);
    std::string got_bytes;
    ASSERT_TRUE(read_file(report(), got_bytes));
    EXPECT_EQ(got_bytes, ref_bytes);
    const Json st = parse_or_die(stats);
    EXPECT_EQ(st.find("hits")->as_uint(), 2u);
    EXPECT_EQ(st.find("misses")->as_uint(), 1u);
  }
};

// SIGTERM: the in-flight hanging child gets its drain grace, then the run
// exits 2 without writing a report.
TEST(ServeCli, SigtermDrainsAndResumesByteIdentical) {
  const InterruptedRun run("sigterm");
  ASSERT_FALSE(run.ref_bytes.empty());
  const pid_t pid = run.start_hung_run();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::string err_text;
  ASSERT_TRUE(read_file(run.tmp.sub("run.err"), err_text));
  EXPECT_NE(err_text.find("interrupted"), std::string::npos) << err_text;
  EXPECT_FALSE(fs::exists(run.report()));
  run.expect_rerun_matches_reference();
}

// SIGKILL: no drain at all — the store's tmp+rename discipline is the only
// thing protecting the entries, so both load whole and no tmp file is left
// behind.
TEST(ServeCli, SigkillLeavesNoTornStateAndResumes) {
  const InterruptedRun run("sigkill");
  ASSERT_FALSE(run.ref_bytes.empty());
  const pid_t pid = run.start_hung_run();
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_FALSE(fs::exists(run.report()));
  ResultStore rs(run.store());
  ResultStore::StoreStat st;
  std::string err;
  ASSERT_TRUE(rs.stat(st, err)) << err;
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.tmp_files, 0u);
  run.expect_rerun_matches_reference();
}

// A hanging cell child must notice that it was orphaned even when the
// orphan goes to a child subreaper rather than to init. A forked helper
// makes itself a subreaper (prctl acts on the helper only), starts a
// supervised run whose cell 0 hangs, SIGKILLs conga_serve once the child is
// up, and must then reap the orphan within 5 s. If it cannot, it kills its
// own process group (the orphan with it) and dies, failing the test.
TEST(ServeCli, HangingCellExitsWhenOrphanedUnderASubreaper) {
  TempDir tmp("subreaper");
  const std::string req = tmp.sub("req.json");
  const std::string errlog = tmp.sub("run.err");
  write_tiny_request(req, {"ecmp"});
  const std::string cmd =
      "env CONGA_CELL_FAULT=hang:0 " + std::string(kBin) + " run --campaign " +
      req + " --supervise --verbose --deadline-ms 60000 2>" + errlog;

  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::setpgid(0, 0);
    if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) std::_Exit(10);
    const pid_t serve = spawn_cmd(cmd);
    const bool spawned = wait_until(
        [&] {
          std::string text;
          return read_file(errlog, text) &&
                 text.find("spawn cell 0") != std::string::npos;
        },
        30000);
    ::usleep(1000 * 1000);  // let the child reach its hang loop
    ::kill(serve, SIGKILL);
    ::waitpid(serve, nullptr, 0);
    if (!spawned) std::_Exit(11);
    for (int waited = 0; waited <= 5000; waited += 50) {
      const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
      if (reaped > 0) std::_Exit(0);
      if (reaped < 0) std::_Exit(12);  // the orphan did not come to us
      ::usleep(50 * 1000);
    }
    ::kill(0, SIGKILL);
    std::_Exit(13);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status)) << "the orphaned cell child kept hanging";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeCli, StoreGcAndStat) {
  TempDir tmp("gc");
  const std::string req = tmp.sub("req.json");
  const std::string store = tmp.sub("store");
  write_tiny_request(req, {"ecmp", "conga"});

  // tear:0@1 — the first attempt of cell 0 dies between tmp write and
  // rename (orphaning a tmp file); the retry succeeds, so the campaign
  // still completes cleanly.
  ASSERT_EQ(run_cmd("CONGA_CELL_FAULT=tear:0@1 " + std::string(kBin) +
                    " run --campaign " + req + " --supervise --store " +
                    store +
                    " --backoff-base-ms 20 --backoff-cap-ms 50"
                    " >/dev/null 2>/dev/null"),
            0);

  ResultStore rs(store);
  ResultStore::StoreStat st;
  std::string err;
  ASSERT_TRUE(rs.stat(st, err)) << err;
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.tmp_files, 1u);  // the orphan from the torn first attempt

  // stat (CLI): deterministic JSON with per-fingerprint buckets.
  const std::string stat_out = tmp.sub("stat.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " store stat --store " + store +
                    " >" + stat_out + " 2>/dev/null"),
            0);
  const Json doc = parse_or_die(stat_out);
  EXPECT_EQ(doc.find("schema")->as_string(), "conga-store-stat-v1");
  EXPECT_EQ(doc.find("entries")->as_uint(), 2u);
  EXPECT_EQ(doc.find("tmp_files")->as_uint(), 1u);
  ASSERT_EQ(doc.find("by_fingerprint")->items().size(), 1u);
  EXPECT_GT(doc.find("by_fingerprint")->items()[0].find("entries")->as_uint(),
            0u);

  // A young orphan survives the default age threshold...
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.tmp_files, 1u);

  // ...and --tmp-age-seconds 0 reaps it without touching live entries.
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --tmp-age-seconds 0 >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.tmp_files, 0u);
  EXPECT_EQ(st.entries, 2u);

  // --keep-fingerprints current keeps this build's entries...
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --keep-fingerprints current >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.entries, 2u);

  // ...while an unrelated keep list removes them.
  ASSERT_EQ(run_cmd(std::string(kBin) + " store gc --store " + store +
                    " --keep-fingerprints deadbeef >/dev/null 2>/dev/null"),
            0);
  ASSERT_TRUE(rs.stat(st, err));
  EXPECT_EQ(st.entries, 0u);
}

TEST(ServeCli, UnwritableStoreDegradesGracefully) {
  TempDir tmp("degraded");
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp", "conga"});

  // Reference: the same request without any store.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --out " + ref_report + " 2>/dev/null"),
            0);

  // A store root nested under a regular file can never be created — the
  // reliable "unwritable" on any uid, including root.
  write_file(tmp.sub("blocker"), "not a directory\n");
  const std::string report = tmp.sub("report.json");
  const std::string stats = tmp.sub("stats.json");
  const std::string errlog = tmp.sub("err.txt");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --supervise --store " + tmp.sub("blocker") +
                    "/store --out " + report + " --stats-out " + stats +
                    " 2>" + errlog),
            0);

  // Full report, byte-identical to the storeless run; stats carry the
  // degradation; the warning printed once.
  std::string ref_bytes;
  std::string got_bytes;
  ASSERT_TRUE(read_file(ref_report, ref_bytes));
  ASSERT_TRUE(read_file(report, got_bytes));
  EXPECT_EQ(got_bytes, ref_bytes);
  const Json st = parse_or_die(stats);
  EXPECT_EQ(st.find("store")->as_string(), "degraded");
  EXPECT_EQ(st.find("store_writes")->as_uint(), 0u);
  std::string err_text;
  ASSERT_TRUE(read_file(errlog, err_text));
  std::size_t warnings = 0;
  for (std::size_t pos = err_text.find("store degraded");
       pos != std::string::npos;
       pos = err_text.find("store degraded", pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u);
}

#ifdef CONGA_TELEMETRY
/// The supervised executor running `exe cell` children of this test's
/// conga_serve under `fault_spec`.
CellExecutor supervised(SupervisorOptions sopts) {
  sopts.exe = kBin;
  CellExecutor exec;
  std::string err;
  EXPECT_TRUE(supervised_executor(sopts, nullptr, exec, err)) << err;
  return exec;
}

// run_campaign with the in-process and the supervised executor: on the
// same request, cold on a fresh store and then warm, both emit the same
// kCampaign* events and byte-identical reports.
TEST(ServeCli, SupervisedAndInProcessRunsAgree) {
  using Triple = std::tuple<telemetry::EventType, std::uint64_t, std::uint64_t>;
  struct Pass {
    std::vector<Triple> events;
    std::string report;
  };
  TempDir tmp("pairing");
  const CampaignSpec spec = make_smoke_campaign();

  auto run_pass = [&](const CellExecutor& execute,
                      const std::string& store_dir) {
    ResultStore store(store_dir);
    telemetry::TraceSink sink;
    RunOptions opts;
    opts.jobs = 2;
    opts.store = &store;
    opts.sink = &sink;
    CampaignRun run;
    std::string err;
    EXPECT_TRUE(run_campaign(spec, opts, run, err, execute)) << err;
    EXPECT_FALSE(run.drained);
    Pass pass;
    for (const telemetry::Event& e : sink.all_events()) {
      if (e.type == telemetry::EventType::kCampaignCellMiss ||
          e.type == telemetry::EventType::kCampaignStoreWrite ||
          e.type == telemetry::EventType::kCampaignCellHit) {
        pass.events.emplace_back(e.type, e.a, e.b);
      }
    }
    pass.report = report_json(run);
    return pass;
  };

  const CellExecutor sup = supervised({});
  const std::string in_store = tmp.sub("inproc");
  const std::string sup_store = tmp.sub("supervised");
  const Pass in_cold = run_pass(simulate_cell, in_store);
  const Pass in_warm = run_pass(simulate_cell, in_store);
  const Pass sup_cold = run_pass(sup, sup_store);
  const Pass sup_warm = run_pass(sup, sup_store);

  // Cold: a miss and a store write per cell; warm: a hit per cell.
  ASSERT_EQ(in_cold.events.size(), 4U);
  EXPECT_EQ(std::get<0>(in_cold.events[0]),
            telemetry::EventType::kCampaignCellMiss);
  EXPECT_EQ(std::get<0>(in_cold.events[1]),
            telemetry::EventType::kCampaignStoreWrite);
  ASSERT_EQ(in_warm.events.size(), 2U);
  EXPECT_EQ(std::get<0>(in_warm.events[0]),
            telemetry::EventType::kCampaignCellHit);

  EXPECT_EQ(sup_cold.events, in_cold.events);
  EXPECT_EQ(sup_warm.events, in_warm.events);
  EXPECT_EQ(in_warm.report, in_cold.report);
  EXPECT_EQ(sup_cold.report, in_cold.report);
  EXPECT_EQ(sup_warm.report, in_cold.report);
}

// The kSupervisor* events are replayed from each cell's attempt log after
// the parallel section: in cell order, whichever worker finished first, and
// identical from run to run. Cell 0 aborts and cell 1 hangs on every
// attempt; cell 2 succeeds.
TEST(ServeCli, SupervisorEventsComeOutInCellOrder) {
  using telemetry::EventType;
  using Event = std::tuple<EventType, std::uint64_t, std::uint64_t>;
  TempDir tmp("supevents");
  CampaignSpec spec;
  spec.name = "tiny";
  spec.policies = {"ecmp", "conga", "letflow"};
  spec.loads_pct = {30};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  spec.cases.push_back({"t", topo});
  spec.warmup_ns = sim::milliseconds(1);
  spec.measure_ns = sim::milliseconds(2);
  spec.max_drain_ns = sim::milliseconds(300);

  SupervisorOptions sopts;
  sopts.fault_spec = "crash:0,hang:1";
  sopts.deadline_ms = 1500;
  sopts.max_attempts = 2;
  sopts.backoff_base_ms = 20;
  sopts.backoff_cap_ms = 100;
  const CellExecutor exec = supervised(sopts);

  auto run_once = [&](const std::string& store_dir) {
    ResultStore store(store_dir);
    telemetry::TraceSink sink;
    RunOptions opts;
    opts.jobs = 2;
    opts.store = &store;
    opts.sink = &sink;
    CampaignRun run;
    std::string err;
    EXPECT_TRUE(run_campaign(spec, opts, run, err, exec)) << err;
    EXPECT_EQ(run.failed.size(), 2U);
    std::vector<Event> events;
    for (const telemetry::Event& e : sink.all_events()) {
      if (telemetry::category_of(e.type) == telemetry::Category::kSupervisor) {
        events.emplace_back(e.type, e.a, e.b);
      }
    }
    return events;
  };
  const auto first = run_once(tmp.sub("a"));
  const auto second = run_once(tmp.sub("b"));

  const std::vector<Cell> cells = expand_campaign(spec, code_fingerprint());
  auto backoff = [&](std::size_t cell) {
    return static_cast<std::uint64_t>(
        backoff_delay_ms(cells[cell].key, 1, sopts));
  };
  constexpr std::uint64_t kAbort = 0x100 | SIGABRT;
  constexpr std::uint64_t kKill = 0x100 | SIGKILL;
  const std::vector<Event> want = {
      {EventType::kSupervisorSpawn, 0, 1},
      {EventType::kSupervisorExit, 0, (1ULL << 32) | kAbort},
      {EventType::kSupervisorRetry, 0, (1ULL << 32) | backoff(0)},
      {EventType::kSupervisorSpawn, 0, 2},
      {EventType::kSupervisorExit, 0, (2ULL << 32) | kAbort},
      {EventType::kSupervisorQuarantine, 0, 2},
      {EventType::kSupervisorSpawn, 1, 1},
      {EventType::kSupervisorTimeout, 1, 1},
      {EventType::kSupervisorExit, 1, (1ULL << 32) | kKill},
      {EventType::kSupervisorRetry, 1, (1ULL << 32) | backoff(1)},
      {EventType::kSupervisorSpawn, 1, 2},
      {EventType::kSupervisorTimeout, 1, 2},
      {EventType::kSupervisorExit, 1, (2ULL << 32) | kKill},
      {EventType::kSupervisorQuarantine, 1, 2},
      {EventType::kSupervisorSpawn, 2, 1},
      {EventType::kSupervisorExit, 2, 1ULL << 32},
  };
  EXPECT_EQ(first, want);
  EXPECT_EQ(second, first);
}
#endif  // CONGA_TELEMETRY

}  // namespace
}  // namespace conga::campaign
