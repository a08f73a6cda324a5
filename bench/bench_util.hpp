// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper. By default it runs a *scaled* configuration (smaller host counts,
// tens of simulated milliseconds) so the whole suite completes in minutes;
// passing --full or setting CONGA_BENCH_FULL=1 selects paper-scale
// parameters. Each bench prints which mode it ran.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "runtime/parallel_runner.hpp"

namespace conga::bench {

inline bool full_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  const char* env = std::getenv("CONGA_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Worker threads for independent experiment cells: `--jobs N` beats
/// CONGA_BENCH_JOBS beats hardware concurrency; 1 = sequential (today's
/// behaviour). Results are deterministic for any value (see
/// runtime/parallel_runner.hpp). A value that is not a whole number >= 1
/// exits 2.
inline int jobs_mode(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      int n = 0;
      if (!tools::parse_int_flag(argv[i + 1], 1, n)) {
        std::fprintf(stderr, "%s: --jobs wants a number >= 1, got '%s'\n",
                     argv[0], argv[i + 1]);
        std::exit(2);
      }
      return n;
    }
  }
  return runtime::default_jobs();
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

/// Prints one row of right-aligned columns: label then numeric cells.
inline void print_row(const std::string& label,
                      const std::vector<double>& cells,
                      const char* fmt = "%10.3f") {
  std::printf("%-14s", label.c_str());
  for (double c : cells) std::printf(fmt, c);
  std::printf("\n");
}

inline void print_cols(const std::string& label,
                       const std::vector<std::string>& names) {
  std::printf("%-14s", label.c_str());
  for (const auto& n : names) std::printf("%10s", n.c_str());
  std::printf("\n");
}

}  // namespace conga::bench
