// End-to-end CLI tests for conga_sim, driving the real binary
// (CONGA_SIM_BIN): flags that a campaign spec would reject — a load outside
// (0, 1], an unparseable fixed size, an unknown distribution or policy —
// exit 2 promptly with the spec's message instead of running (or wedging)
// a simulation, while the documented flag spellings still run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace {

namespace fs = std::filesystem;

constexpr const char* kBin = CONGA_SIM_BIN;

struct Outcome {
  int exit_code = -1;  ///< 124 when `timeout` had to kill the run
  std::string err;
};

/// Runs conga_sim with `flags` under a 10 s timeout; captures stderr.
Outcome run_sim(const std::string& flags) {
  const fs::path err_path =
      fs::temp_directory_path() /
      ("conga_sim_cli_test." + std::to_string(::getpid()) + ".err");
  const std::string cmd = "timeout 10 " + std::string(kBin) + " " + flags +
                          " >/dev/null 2>" + err_path.string();
  const int st = std::system(cmd.c_str());
  Outcome out;
  if (st != -1 && WIFEXITED(st)) out.exit_code = WEXITSTATUS(st);
  if (std::FILE* f = std::fopen(err_path.c_str(), "rb")) {
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.err.assign(buf, n);
    std::fclose(f);
  }
  std::error_code ec;
  fs::remove(err_path, ec);
  return out;
}

// A few milliseconds of a shrunken testbed: valid runs finish in well under
// a second, so only a rejected flag can explain a fast exit 2.
const std::string kSmall = "--hosts 4 --warmup-ms 1 --duration-ms 2 ";

void expect_rejected(const std::string& flags, const std::string& message) {
  const Outcome o = run_sim(kSmall + flags);
  EXPECT_EQ(o.exit_code, 2) << flags << "\n" << o.err;
  EXPECT_NE(o.err.find(message), std::string::npos) << flags << "\n" << o.err;
}

TEST(SimCli, RejectsLoadOutsideUnitInterval) {
  expect_rejected("--load 0", "load must be in (0, 1]");
  expect_rejected("--load 1.5", "load must be in (0, 1]");
  expect_rejected("--load -0.2", "load must be in (0, 1]");
}

TEST(SimCli, RejectsBadDistributions) {
  expect_rejected("--workload fixed:abc", "bad fixed distribution");
  expect_rejected("--workload pareto", "unknown distribution");
}

TEST(SimCli, RejectsUnknownPolicyAndEmptyWindow) {
  expect_rejected("--lb nope", "unknown policy 'nope'");
  expect_rejected("--load 0.3 --duration-ms 0", "windows must be");
  expect_rejected("--load 0.3 --transport mptcp --subflows 0",
                  "--subflows must be >= 1");
}

TEST(SimCli, DocumentedSpellingsStillRun) {
  for (const char* flags :
       {"--workload enterprise", "--workload data-mining",
        "--workload web-search", "--workload fixed:20000",
        "--transport mptcp --lb ecmp", "--transport dctcp --lb drill"}) {
    const Outcome o = run_sim(kSmall + "--load 0.3 " + flags);
    EXPECT_EQ(o.exit_code, 0) << flags << "\n" << o.err;
  }
}

}  // namespace
