// Tests for the parallel experiment runner: execution semantics (every index
// exactly once, results committed by index, exception propagation) and the
// property the whole design leans on — per-cell simulation digests are
// independent of the jobs count.
#include "runtime/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "debug/determinism.hpp"
#include "lb/factories.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga {
namespace {

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  runtime::parallel_for(kCount, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelRunner, SequentialFallbackPreservesIndexOrder) {
  std::vector<std::size_t> order;
  runtime::parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, MapCommitsResultsByIndex) {
  const std::vector<std::size_t> out =
      runtime::parallel_map<std::size_t>(64, 8, [](std::size_t i) {
        return i * i;
      });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, ZeroCountIsNoop) {
  bool ran = false;
  runtime::parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelRunner, PropagatesTaskException) {
  EXPECT_THROW(
      runtime::parallel_for(16, 4,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("cell 7");
                            }),
      std::runtime_error);
}

TEST(ParallelRunner, DefaultJobsHonorsEnv) {
  ::setenv("CONGA_BENCH_JOBS", "3", 1);
  EXPECT_EQ(runtime::default_jobs(), 3);
  ::setenv("CONGA_BENCH_JOBS", "0", 1);  // invalid: fall back to hardware
  EXPECT_GE(runtime::default_jobs(), 1);
  ::unsetenv("CONGA_BENCH_JOBS");
  EXPECT_GE(runtime::default_jobs(), 1);
}

workload::ExperimentConfig grid_cell(double load, std::uint64_t seed) {
  workload::ExperimentConfig s;
  s.topo.num_leaves = 3;
  s.topo.num_spines = 2;
  s.topo.hosts_per_leaf = 4;
  s.lb = core::conga();
  s.dist = workload::fixed_size(50'000);
  s.load = load;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(4);
  s.fabric_seed = seed;
  s.traffic_seed = seed * 31 + 7;
  return s;
}

// The tentpole determinism property: running a grid of cells with --jobs 1
// and --jobs 8 produces byte-identical per-cell FCT and event-trace digests.
// Workers own their Scheduler/Fabric/Rng, so any cross-thread coupling
// (shared mutable state, iteration-order dependence) breaks this test — and
// the TSan CI lane runs it too.
TEST(ParallelRunner, GridDigestsIndependentOfJobs) {
  struct Cell {
    double load;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const double load : {0.3, 0.5}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) cells.push_back({load, seed});
  }
  auto run_cell = [&](std::size_t i) {
    return debug::run_digest_trial(grid_cell(cells[i].load, cells[i].seed));
  };

  const std::vector<debug::RunDigests> seq =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 1, run_cell);
  const std::vector<debug::RunDigests> par =
      runtime::parallel_map<debug::RunDigests>(cells.size(), 8, run_cell);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_GT(seq[i].flows, 0u) << "cell " << i << " produced no flows";
    EXPECT_EQ(seq[i].fct, par[i].fct) << "FCT digest diverged in cell " << i;
    EXPECT_EQ(seq[i].trace, par[i].trace)
        << "event-trace digest diverged in cell " << i;
    EXPECT_TRUE(seq[i] == par[i]);
  }
}

// Distinct cells must of course differ — guards against a digest that is
// insensitive to its inputs, which would make the test above vacuous.
TEST(ParallelRunner, DistinctCellsProduceDistinctDigests) {
  const debug::RunDigests a = debug::run_digest_trial(grid_cell(0.3, 1));
  const debug::RunDigests b = debug::run_digest_trial(grid_cell(0.5, 1));
  EXPECT_NE(a.trace, b.trace);
}

}  // namespace
}  // namespace conga
