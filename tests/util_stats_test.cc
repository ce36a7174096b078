// Tests for descriptive statistics.

#include <gtest/gtest.h>

#include "util/stats.h"

namespace deepsurf {
namespace stats {
namespace {

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({7}), 7.0);
}

TEST(StdDevTest, KnownSample) {
  // Sample {2,4,4,4,5,5,7,9}: sample stddev ~ 2.138.
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(MinMaxSumTest, Basic) {
  std::vector<double> xs = {3, -1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(Min(xs), -1);
  EXPECT_DOUBLE_EQ(Max(xs), 5);
  EXPECT_DOUBLE_EQ(Sum(xs), 12);
}

TEST(GiniTest, EqualDistributionIsZero) {
  EXPECT_NEAR(Gini({5, 5, 5, 5}), 0.0, 1e-9);
}

TEST(GiniTest, ConcentratedDistributionNearOne) {
  std::vector<double> xs(100, 0.0);
  xs[0] = 1000.0;
  EXPECT_GT(Gini(xs), 0.95);
}

TEST(GiniTest, MonotoneInConcentration) {
  EXPECT_LT(Gini({4, 5, 6}), Gini({1, 2, 12}));
}

TEST(EntropyTest, UniformIsLogN) {
  EXPECT_NEAR(EntropyBits({1, 1, 1, 1}), 2.0, 1e-9);
}

TEST(EntropyTest, PointMassIsZero) {
  EXPECT_NEAR(EntropyBits({5, 0, 0}), 0.0, 1e-9);
}

TEST(JensenShannonTest, IdenticalDistributionsDivergeZero) {
  std::map<std::string, double> p = {{"a", 3}, {"b", 1}};
  EXPECT_NEAR(JensenShannonBits(p, p), 0.0, 1e-9);
}

TEST(JensenShannonTest, DisjointDistributionsDivergeOne) {
  std::map<std::string, double> p = {{"a", 1}, {"b", 1}};
  std::map<std::string, double> q = {{"c", 1}, {"d", 1}};
  EXPECT_NEAR(JensenShannonBits(p, q), 1.0, 1e-9);
}

TEST(JensenShannonTest, SymmetricAndBounded) {
  std::map<std::string, double> p = {{"a", 4}, {"b", 1}, {"c", 2}};
  std::map<std::string, double> q = {{"b", 3}, {"c", 1}, {"d", 5}};
  double pq = JensenShannonBits(p, q);
  double qp = JensenShannonBits(q, p);
  EXPECT_NEAR(pq, qp, 1e-9);
  EXPECT_GT(pq, 0.0);
  EXPECT_LT(pq, 1.0);
}

TEST(PercentileTrackerTest, EmptyIsZero) {
  PercentileTracker t(16);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.Quantile(0.99), 0.0);
}

TEST(PercentileTrackerTest, MatchesBatchPercentileWhileWindowNotFull) {
  PercentileTracker t(128);
  std::vector<double> xs = {9, 1, 4, 7, 2, 8, 3, 6, 5};
  for (double x : xs) t.Add(x);
  EXPECT_EQ(t.size(), xs.size());
  for (double q : {0.0, 0.25, 0.5, 0.90, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(t.Quantile(q), Percentile(xs, q * 100.0)) << "q=" << q;
  }
}

TEST(PercentileTrackerTest, SlidingWindowForgetsOldSamples) {
  PercentileTracker t(4);
  // Fill the window with large values, then push them all out.
  for (double x : {100.0, 200.0, 300.0, 400.0}) t.Add(x);
  EXPECT_DOUBLE_EQ(t.Quantile(0.0), 100.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) t.Add(x);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total(), 8u);
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 4.0)
      << "evicted samples must not linger";
  EXPECT_DOUBLE_EQ(t.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), Percentile({1, 2, 3, 4}, 50.0));
}

TEST(PercentileTrackerTest, SingleSampleIsEveryQuantile) {
  PercentileTracker t(8);
  t.Add(42.0);
  EXPECT_DOUBLE_EQ(t.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 42.0);
}

TEST(PercentileTrackerTest, PartiallyOverwrittenWindowUsesLiveSamples) {
  PercentileTracker t(3);
  for (double x : {10.0, 20.0, 30.0, 40.0}) t.Add(x);  // window: 20 30 40
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.Quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 40.0);
}

}  // namespace
}  // namespace stats
}  // namespace deepsurf
