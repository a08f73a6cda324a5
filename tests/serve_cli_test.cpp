// End-to-end CLI tests for conga_serve, driving the real binary
// (CONGA_SERVE_BIN): a run killed by SIGTERM or SIGKILL followed by a
// resuming rerun, graceful store degradation, the documented 0/2 exit
// codes, and the pinned request in tests/data expanding to its pinned cell
// keys.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "net/topology.hpp"

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
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    ::usleep(5 * 1000);
  }
  return pred();
}

/// A campaign request on one shrunken-testbed case, `policies` cells of
/// `measure_ms` each.
void write_tiny_request(const std::string& path,
                        const std::vector<std::string>& policies,
                        int hosts_per_leaf = 4, int measure_ms = 2) {
  CampaignSpec c;
  c.name = "tiny";
  c.policies = policies;
  c.loads_pct = {30};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = hosts_per_leaf;
  c.cases.push_back({"t", topo});
  c.warmup_ns = sim::milliseconds(1);
  c.measure_ns = sim::milliseconds(measure_ms);
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
  EXPECT_EQ(run_cmd(std::string(kBin) + " expand --builtin smoke --jobs 4" +
                    " >/dev/null 2>" + err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("expand does not take --jobs"), std::string::npos)
      << err_text;

  // 2: a bound on a real-valued flag reads as typed, not "0.000000".
  EXPECT_EQ(run_cmd(std::string(kBin) +
                    " verdict --tolerance -1 >/dev/null 2>" + err_path),
            2);
  ASSERT_TRUE(read_file(err_path, err_text));
  EXPECT_NE(err_text.find("--tolerance must be >= 0\n"), std::string::npos)
      << err_text;

  // 2: flags and subcommands that were retired fail loudly rather than
  // being ignored. A verdict comes from the verdict subcommand only, and
  // the store has no maintenance subcommands (it is a cache).
  for (const auto& [args, want] :
       std::vector<std::pair<std::string, std::string>>{
           {" run --supervise", "unknown flag: --supervise"},
           {" run --deadline-ms 5", "unknown flag: --deadline-ms"},
           {" cell", "unknown subcommand 'cell'"},
           {" run --baseline X", "run does not take --baseline"},
           {" run --verdict-out X", "run does not take --verdict-out"},
           {" verdict --verdict-out X", "verdict does not take --verdict-out"},
           {" store gc --store D", "unknown subcommand 'store'"},
       }) {
    EXPECT_EQ(run_cmd(std::string(kBin) + args + " </dev/null >/dev/null 2>" +
                      err_path),
              2)
        << args;
    ASSERT_TRUE(read_file(err_path, err_text));
    EXPECT_NE(err_text.find(want), std::string::npos) << args << ": "
                                                      << err_text;
  }
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

/// The entry files under `store`; in-flight writes under tmp/ do not count.
std::size_t store_entries(const std::string& store) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(store, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().filename() == "tmp") {
      it.disable_recursion_pending();
    } else if (it->is_regular_file(ec) && it->path().extension() == ".json") {
      ++n;
    }
  }
  return n;
}

// A killed run never costs finished work: each cell is stored (tmp write,
// then rename) as soon as it finishes, so whether SIGTERM or SIGKILL stops
// the run, the store holds whole entries only, and a rerun on it reuses
// every one of them and writes the report an uninterrupted run writes.
// `sig` stops the run once its first entry lands.
void expect_killed_run_resumes(const std::string& tag, int sig) {
  TempDir tmp(tag);
  const std::string req = tmp.sub("req.json");
  constexpr std::size_t kCells = 4;
  write_tiny_request(req, {"ecmp", "conga", "letflow", "drill"}, 8, 15);

  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --out " + ref_report + " 2>/dev/null"),
            0);
  std::string ref_bytes;
  ASSERT_TRUE(read_file(ref_report, ref_bytes));

  const std::string store = tmp.sub("store");
  const std::string report = tmp.sub("report.json");
  const pid_t pid = spawn_cmd(std::string(kBin) + " run --campaign " + req +
                              " --store " + store + " --out " + report +
                              " 2>/dev/null");
  ASSERT_GT(pid, 0);
  const bool landed =
      wait_until([&] { return store_entries(store) >= 1; }, 60000);
  ASSERT_EQ(::kill(pid, sig), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(landed);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the run finished before the kill";
  EXPECT_EQ(WTERMSIG(status), sig);
  EXPECT_FALSE(fs::exists(report));
  const std::size_t found = store_entries(store);
  ASSERT_GE(found, 1u);
  ASSERT_LT(found, kCells);

  const std::string stats = tmp.sub("rerun.stats.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --store " + store + " --out " + report +
                    " --stats-out " + stats + " 2>/dev/null"),
            0);
  std::string got_bytes;
  ASSERT_TRUE(read_file(report, got_bytes));
  EXPECT_EQ(got_bytes, ref_bytes);
  const Json st = parse_or_die(stats);
  EXPECT_EQ(st.find("hits")->as_uint(), found);
  EXPECT_EQ(st.find("misses")->as_uint(), kCells - found);
  EXPECT_EQ(st.find("corrupt")->as_uint(), 0u);
}

TEST(ServeCli, SigtermedRunResumesByteIdentical) {
  expect_killed_run_resumes("sigterm", SIGTERM);
}

TEST(ServeCli, SigkillLeavesNoTornStateAndResumes) {
  expect_killed_run_resumes("sigkill", SIGKILL);
}

TEST(ServeCli, UnwritableStoreDegradesGracefully) {
  TempDir tmp("degraded");
  const std::string req = tmp.sub("req.json");
  write_tiny_request(req, {"ecmp", "conga"});

  // Reference: the same request without any store.
  const std::string ref_report = tmp.sub("ref.json");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --out " + ref_report + " 2>/dev/null"),
            0);

  // A store root nested under a regular file can never be created — the
  // reliable "unwritable" on any uid, including root.
  write_file(tmp.sub("blocker"), "not a directory\n");
  const std::string report = tmp.sub("report.json");
  const std::string stats = tmp.sub("stats.json");
  const std::string errlog = tmp.sub("err.txt");
  ASSERT_EQ(run_cmd(std::string(kBin) + " run --campaign " + req +
                    " --store " + tmp.sub("blocker") +
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

}  // namespace
}  // namespace conga::campaign
