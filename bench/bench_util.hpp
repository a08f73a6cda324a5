// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper. By default it runs a *scaled* configuration (smaller host counts,
// tens of simulated milliseconds) so the whole suite completes in minutes;
// passing --full selects paper-scale parameters. Each bench prints which
// mode it ran.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_flags.hpp"
#include "runtime/parallel_runner.hpp"

namespace conga::bench {

/// What a bench's command line selected.
struct Mode {
  bool full = false;  ///< --full: paper-scale parameters
  int jobs = 1;       ///< worker threads for independent cells
};

namespace detail {
inline const char* bench_name = "bench";
}  // namespace detail

/// Prints `msg` after the bench's name and exits 2.
[[noreturn]] inline void usage(const char* msg) {
  std::fprintf(stderr, "%s: %s\n", detail::bench_name, msg);
  std::exit(2);
}

/// Reads a bench's argv through tools::FlagReader. Every bench takes
/// --full. A bench that runs its cells on the parallel runner passes
/// `takes_jobs` and also takes --jobs N, which beats CONGA_BENCH_JOBS,
/// which beats hardware concurrency (1 = sequential; results are the same
/// for any value, see runtime/parallel_runner.hpp). `extra(args, flag)`
/// reads the bench's own flags and returns false for one it does not know.
/// An unknown flag, a missing value or a malformed number exits 2.
template <class Extra>
Mode read_flags(int argc, char** argv, bool takes_jobs, Extra extra) {
  detail::bench_name = argv[0];
  Mode mode;
  if (takes_jobs) mode.jobs = runtime::default_jobs();
  tools::FlagReader args(argc, argv, usage);
  args.each([&](const std::string& flag) {
    if (flag == "--full") {
      mode.full = true;
    } else if (takes_jobs && flag == "--jobs") {
      mode.jobs = args.number<int>(1);
    } else {
      return extra(args, flag);
    }
    return true;
  });
  return mode;
}

inline Mode read_flags(int argc, char** argv, bool takes_jobs = false) {
  return read_flags(argc, argv, takes_jobs,
                    [](tools::FlagReader&, const std::string&) {
                      return false;
                    });
}

inline void print_header(const std::string& title, bool full) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("mode: %s\n", full ? "FULL (paper-scale)" : "SCALED (default; --full for paper-scale)");
  std::printf("==============================================================\n");
}

inline void print_header(const std::string& title, bool full, int jobs) {
  print_header(title, full);
  std::printf("jobs: %d (--jobs N / CONGA_BENCH_JOBS to change)\n", jobs);
}

}  // namespace conga::bench
