// Unit tests for the RNG substrate: reproducibility, stream independence,
// and the statistical sanity of the samplers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/accumulator.hpp"
#include "support/sampling.hpp"

namespace esched {
namespace {

TEST(Xoshiro, IsDeterministicGivenSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int n = 0; n < 1000; ++n) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int n = 0; n < 100; ++n) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, JumpedStreamsDoNotCollide) {
  Xoshiro256 base(7);
  Xoshiro256 s1 = base.stream(1);
  Xoshiro256 s2 = base.stream(2);
  int same = 0;
  for (int n = 0; n < 1000; ++n) {
    if (s1() == s2()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Distributions, UniformOpen01InRange) {
  Xoshiro256 rng(3);
  for (int n = 0; n < 100000; ++n) {
    const double u = uniform_open01(rng);
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(Distributions, UniformMeanAndBounds) {
  Xoshiro256 rng(4);
  Accumulator acc;
  for (int n = 0; n < 200000; ++n) {
    const double x = uniform(rng, 2.0, 6.0);
    ASSERT_GE(x, 2.0);
    ASSERT_LT(x, 6.0);
    acc.add(x);
  }
  EXPECT_NEAR(acc.mean(), 4.0, 0.02);
  // Var of U(2,6) is 16/12.
  EXPECT_NEAR(acc.variance(), 16.0 / 12.0, 0.02);
}

TEST(Distributions, ExponentialMomentsMatch) {
  Xoshiro256 rng(5);
  const double rate = 2.5;
  MomentAccumulator acc;
  for (int n = 0; n < 400000; ++n) acc.add(exponential(rng, rate));
  EXPECT_NEAR(acc.raw_moment(1), 1.0 / rate, 3e-3);
  EXPECT_NEAR(acc.raw_moment(2), 2.0 / (rate * rate), 5e-3);
  EXPECT_NEAR(acc.raw_moment(3), 6.0 / (rate * rate * rate), 2e-2);
}

TEST(Distributions, ExponentialRejectsBadRate) {
  Xoshiro256 rng(6);
  EXPECT_THROW(exponential(rng, 0.0), Error);
  EXPECT_THROW(exponential(rng, -1.0), Error);
}

TEST(Distributions, BernoulliFrequency) {
  Xoshiro256 rng(7);
  int hits = 0;
  const int trials = 200000;
  for (int n = 0; n < trials; ++n) {
    if (bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 5e-3);
}

TEST(Distributions, UniformIndexIsUnbiased) {
  Xoshiro256 rng(10);
  std::vector<int> counts(5, 0);
  const int trials = 250000;
  for (int n = 0; n < trials; ++n) ++counts[uniform_index(rng, 5)];
  for (int v = 0; v < 5; ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(trials), 0.2, 5e-3);
  }
}

}  // namespace
}  // namespace esched
