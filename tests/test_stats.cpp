// Unit tests for the statistics substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "stats/accumulator.hpp"
#include "stats/confidence.hpp"
#include "stats/histogram.hpp"
#include "stats/time_average.hpp"
#include "support/sampling.hpp"

namespace esched {
namespace {

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyThrows) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), Error);
  acc.add(1.0);
  EXPECT_THROW(acc.variance(), Error);  // needs two observations
}

TEST(MomentAccumulator, RawMoments) {
  MomentAccumulator acc;
  for (double x : {1.0, 2.0, 3.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.raw_moment(1), 2.0);
  EXPECT_DOUBLE_EQ(acc.raw_moment(2), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(acc.raw_moment(3), 36.0 / 3.0);
  EXPECT_THROW(acc.raw_moment(4), Error);
}

TEST(TimeAverage, PiecewiseConstantIntegral) {
  TimeAverage avg;
  avg.start(0.0, 2.0);
  avg.update(1.0, 4.0);  // value 2 on [0,1)
  avg.update(3.0, 0.0);  // value 4 on [1,3)
  avg.advance(4.0);      // value 0 on [3,4)
  // Integral = 2*1 + 4*2 + 0*1 = 10 over span 4.
  EXPECT_DOUBLE_EQ(avg.average(), 2.5);
}

TEST(TimeAverage, ResetDropsWarmup) {
  TimeAverage avg;
  avg.start(0.0, 100.0);
  avg.update(10.0, 1.0);
  avg.reset_at(10.0);
  avg.advance(20.0);  // value 1 on [10,20)
  EXPECT_DOUBLE_EQ(avg.average(), 1.0);
}

TEST(TimeAverage, RejectsTimeTravel) {
  TimeAverage avg;
  avg.start(0.0, 0.0);
  avg.update(1.0, 2.0);
  EXPECT_THROW(avg.update(0.5, 3.0), Error);
}

TEST(Confidence, TCriticalKnownValues) {
  EXPECT_NEAR(t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(t_critical(10, 0.95), 2.228, 1e-3);
  EXPECT_NEAR(t_critical(1000, 0.95), 1.960, 1e-3);
  EXPECT_NEAR(t_critical(5, 0.99), 4.032, 1e-3);
  EXPECT_NEAR(t_critical(5, 0.90), 2.015, 1e-3);
  EXPECT_THROW(t_critical(0, 0.95), Error);
  EXPECT_THROW(t_critical(5, 0.42), Error);
}

TEST(Confidence, ReplicationCiCoversKnownMean) {
  // Five replications with mean 10.
  const std::vector<double> reps = {9.5, 10.5, 10.0, 9.8, 10.2};
  const ConfidenceInterval ci = replication_ci(reps);
  EXPECT_NEAR(ci.mean, 10.0, 1e-12);
  EXPECT_TRUE(ci.contains(10.0));
  EXPECT_GT(ci.half_width, 0.0);
}

TEST(Confidence, BatchMeansRequiresEnoughData) {
  std::vector<double> tiny(10, 1.0);
  EXPECT_THROW(batch_means_ci(tiny, 20), Error);
}

TEST(Confidence, BatchMeansOnIidData) {
  // For i.i.d. data the batch-means CI should cover the true mean.
  std::vector<double> xs;
  unsigned state = 12345;
  for (int n = 0; n < 20000; ++n) {
    state = state * 1664525u + 1013904223u;
    xs.push_back(static_cast<double>(state) / 4294967296.0);  // U(0,1)
  }
  const ConfidenceInterval ci = batch_means_ci(xs, 20);
  EXPECT_NEAR(ci.mean, 0.5, 0.02);
  EXPECT_TRUE(ci.contains(0.5));
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int n = 0; n < 100; ++n) h.add(static_cast<double>(n) / 10.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

}  // namespace
}  // namespace esched
