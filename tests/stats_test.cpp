// Tests for summary statistics and FCT accounting.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "stats/fct_collector.hpp"
#include "stats/summary.hpp"

namespace conga::stats {
namespace {

TEST(Summary, MeanAndStddev) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0);
  EXPECT_DOUBLE_EQ(s.cdf_at(1.0), 0);
  EXPECT_TRUE(s.cdf_points(10).empty());
}

TEST(Summary, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
}

TEST(Summary, CdfAtCountsInclusive) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Summary, CdfPointsSpanRange) {
  Summary s;
  for (int i = 0; i < 1000; ++i) s.add(i);
  const auto pts = s.cdf_points(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().first, 0);
  EXPECT_DOUBLE_EQ(pts.back().first, 999);
  EXPECT_NEAR(pts.back().second, 1.0, 1e-9);
}

TEST(FctCollector, NormalizedFct) {
  FctCollector c;
  c.record(1000, 200, 100);   // 2x optimal
  c.record(2000, 400, 100);   // 4x optimal
  EXPECT_DOUBLE_EQ(c.avg_normalized_fct(), 3.0);
}

TEST(FctCollector, SizeBuckets) {
  FctCollector c;
  c.record(50'000, sim::milliseconds(1), 100);      // small
  c.record(500'000, sim::milliseconds(10), 100);    // mid
  c.record(50'000'000, sim::milliseconds(100), 100);  // large
  EXPECT_EQ(c.count_in(0, FctCollector::kSmallFlowBytes), 1u);
  EXPECT_EQ(c.count_in(FctCollector::kLargeFlowBytes, UINT64_MAX), 1u);
  EXPECT_NEAR(c.avg_fct_small(), 1e-3, 1e-9);
  EXPECT_NEAR(c.avg_fct_large(), 0.1, 1e-9);
  EXPECT_NEAR(c.avg_fct_overall(), (0.001 + 0.01 + 0.1) / 3, 1e-9);
}

TEST(FctCollector, ReorderLedgerAccumulates) {
  FctCollector c;
  EXPECT_EQ(c.reorder_segments(), 0u);
  EXPECT_EQ(c.reorder_max_distance(), 0u);
  EXPECT_EQ(c.reordered_flows(), 0u);
  c.record_reorder(0, 0);  // in-order flow: counted nowhere
  c.record_reorder(5, 2900);
  c.record_reorder(3, 1460);  // smaller max must not regress the ledger
  EXPECT_EQ(c.reorder_segments(), 8u);
  EXPECT_EQ(c.reorder_max_distance(), 2900u);
  EXPECT_EQ(c.reordered_flows(), 2u);
}

TEST(FctCollector, P99Normalized) {
  FctCollector c;
  for (int i = 0; i < 99; ++i) c.record(1000, 100, 100);  // 1x
  c.record(1000, 10000, 100);                             // 100x outlier
  // p99 interpolates between the 99th sample (1x) and the outlier (100x).
  EXPECT_GT(c.p99_normalized_fct(), 1.5);
}

}  // namespace
}  // namespace conga::stats
