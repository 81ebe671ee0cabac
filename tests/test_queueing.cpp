// Unit tests for the M/M/1 and M/M/k closed forms, cross-checked against
// stationary solves of the corresponding truncated chains.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"

namespace esched {
namespace {

TEST(MM1, KnownClosedForms) {
  const MM1 q(0.5, 1.0);
  EXPECT_TRUE(q.stable());
  EXPECT_DOUBLE_EQ(q.utilization(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_response_time(), 2.0);
  EXPECT_DOUBLE_EQ(q.mean_jobs(), 1.0);
  EXPECT_DOUBLE_EQ(q.mean_wait(), 1.0);
}

TEST(MM1, LittlesLawConsistency) {
  for (double rho : {0.1, 0.5, 0.9}) {
    const MM1 q(rho * 3.0, 3.0);
    EXPECT_NEAR(q.mean_jobs(), q.lambda * q.mean_response_time(), 1e-12);
  }
}

TEST(MM1, UnstableThrows) {
  const MM1 q(2.0, 1.0);
  EXPECT_FALSE(q.stable());
  EXPECT_THROW(q.mean_response_time(), Error);
  EXPECT_THROW(q.busy_period_moments(), Error);
}

TEST(MM1, BusyPeriodScvGrowsWithLoad) {
  // C^2 of the busy period is (1+rho)/(1-rho): increasing in rho.
  double prev = 0.0;
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Moments3 m = MM1(rho, 1.0).busy_period_moments();
    const double scv = m.scv();
    EXPECT_NEAR(scv, (1.0 + rho) / (1.0 - rho), 1e-9) << rho;
    EXPECT_GT(scv, prev);
    prev = scv;
  }
}

TEST(MM1, MeanJobsMatchesStationarySolve) {
  const double lambda = 0.65;
  const double mu = 1.0;
  const std::size_t n = 80;
  SparseCtmc chain(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    chain.add_rate(s, s + 1, lambda);
    chain.add_rate(s + 1, s, mu);
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  double mean = 0.0;
  for (std::size_t s = 0; s < n; ++s) mean += static_cast<double>(s) * pi[s];
  EXPECT_NEAR(mean, MM1(lambda, mu).mean_jobs(), 1e-8);
}

TEST(MMk, ReducesToMM1WhenKIs1) {
  const MMk q(0.6, 1.0, 1);
  const MM1 ref(0.6, 1.0);
  EXPECT_NEAR(q.mean_response_time(), ref.mean_response_time(), 1e-12);
  EXPECT_NEAR(q.mean_jobs(), ref.mean_jobs(), 1e-12);
  // Erlang-C of M/M/1 equals the utilization.
  EXPECT_NEAR(q.erlang_c(), 0.6, 1e-12);
}

TEST(MMk, ErlangBKnownValues) {
  // Classic check: offered load 2 on 3 servers => B = (8/6)/(1+2+2+8/6).
  const MMk q(2.0, 1.0, 3);
  const double expected = (4.0 / 3.0) / (1.0 + 2.0 + 2.0 + 4.0 / 3.0);
  EXPECT_NEAR(q.erlang_b(), expected, 1e-12);
}

TEST(MMk, MeanJobsMatchesStationarySolve) {
  const double lambda = 2.6;
  const double mu = 1.0;
  const int k = 4;
  const std::size_t n = 120;
  SparseCtmc chain(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    chain.add_rate(s, s + 1, lambda);
    chain.add_rate(s + 1, s,
                   std::min<double>(static_cast<double>(s + 1), k) * mu);
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  double mean = 0.0;
  for (std::size_t s = 0; s < n; ++s) mean += static_cast<double>(s) * pi[s];
  EXPECT_NEAR(mean, MMk(lambda, mu, k).mean_jobs(), 1e-7);
}

TEST(MMk, WaitDecreasesWithMoreServers) {
  // Fixed utilization 0.8: pooling reduces waiting.
  double prev = 1e9;
  for (int k : {1, 2, 4, 8, 16}) {
    const MMk q(0.8 * k, 1.0, k);
    EXPECT_LT(q.mean_wait(), prev);
    prev = q.mean_wait();
  }
}

TEST(MMk, UnstableThrows) {
  const MMk q(5.0, 1.0, 4);
  EXPECT_FALSE(q.stable());
  EXPECT_THROW(q.mean_wait(), Error);
}

TEST(MMk, RejectsBadParameters) {
  EXPECT_THROW(MMk(1.0, 0.0, 2), Error);
  EXPECT_THROW(MMk(-1.0, 1.0, 2), Error);
  EXPECT_THROW(MMk(1.0, 1.0, 0), Error);
}

}  // namespace
}  // namespace esched
