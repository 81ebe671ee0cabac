// Appendix A tests: the generalized SRPT-k schedule, the LP lower bound,
// and the Theorem 9 guarantee ALG <= 4 * LP* checked over random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "studies/lp_bound.hpp"
#include "studies/srpt.hpp"

namespace esched {
namespace {

TEST(SrptSchedule, SingleElasticJobUsesCap) {
  // One job, size 8, cap 4, k = 8: only 4 servers usable -> finishes at 2.
  const BatchScheduleResult r = srpt_k_schedule({{8.0, 4.0}}, 8);
  EXPECT_DOUBLE_EQ(r.completion_times[0], 2.0);
  EXPECT_DOUBLE_EQ(r.total_response_time, 2.0);
}

TEST(SrptSchedule, TwoJobsSharePriorityOrder) {
  // Sizes 1 and 2, caps 1, k = 1: SPT runs the size-1 job first.
  const BatchScheduleResult r =
      srpt_k_schedule({{2.0, 1.0}, {1.0, 1.0}}, 1);
  EXPECT_DOUBLE_EQ(r.completion_times[1], 1.0);
  EXPECT_DOUBLE_EQ(r.completion_times[0], 3.0);
  EXPECT_DOUBLE_EQ(r.total_response_time, 4.0);
}

TEST(SrptSchedule, LeftoverServersFlowDownThePriorityList) {
  // Job A: size 4, cap 1. Job B: size 8, cap 8. k = 4. SPT order: A, B.
  // A takes 1 server, B takes 3: A finishes at 4 (B has 8 - 12 < 0... B
  // finishes earlier: at t = 8/3). After B, A continues alone.
  const BatchScheduleResult r =
      srpt_k_schedule({{4.0, 1.0}, {8.0, 8.0}}, 4);
  EXPECT_NEAR(r.completion_times[1], 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.completion_times[0], 4.0, 1e-12);
}

TEST(SrptSchedule, SpeedScalesCompletions) {
  const std::vector<BatchJob> jobs = {{3.0, 1.0}, {5.0, 2.0}, {7.0, 4.0}};
  const BatchScheduleResult r1 = srpt_k_schedule(jobs, 4, 1.0);
  const BatchScheduleResult r2 = srpt_k_schedule(jobs, 4, 2.0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_NEAR(r2.completion_times[j], r1.completion_times[j] / 2.0, 1e-12);
  }
}

TEST(SrptSchedule, MakespanIsLastCompletion) {
  const BatchScheduleResult r =
      srpt_k_schedule({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}}, 2);
  double last = 0.0;
  for (double c : r.completion_times) last = std::max(last, c);
  EXPECT_DOUBLE_EQ(r.makespan, last);
}

TEST(SrptSchedule, RejectsBadInput) {
  EXPECT_THROW(srpt_k_schedule({}, 2), Error);
  EXPECT_THROW(srpt_k_schedule({{0.0, 1.0}}, 2), Error);
  EXPECT_THROW(srpt_k_schedule({{1.0, 1.0}}, 0), Error);
  EXPECT_THROW(priority_schedule({{1.0, 1.0}}, 1, {0, 1}), Error);
}

TEST(LpBound, SerialSptClosedForm) {
  // Jobs 1, 2 (caps 1), k = 2: U_1 = 0, U_2 = 1.
  // LP* = (0 + 0.5)/2 + (1 + 1)/2 + 0.5*1/1 + 0.5*2/1 = 0.25 + 1 + 1.5.
  const double lp = lp_lower_bound({{1.0, 1.0}, {2.0, 1.0}}, 2);
  EXPECT_NEAR(lp, 2.75, 1e-12);
}

TEST(LpBound, SptOrderMinimizesTheSerialCost) {
  const std::vector<BatchJob> jobs = {{3.0, 2.0}, {1.0, 1.0}, {2.0, 4.0}};
  const double best = lp_lower_bound(jobs, 3);
  std::vector<int> order = {0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    EXPECT_GE(lp_cost_of_serial_order(jobs, 3, order), best - 1e-12);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(LpBound, LowerBoundsTheAlgorithmOnTinyInstances) {
  // LP* <= OPT <= best static priority <= ALG.
  const std::vector<BatchJob> jobs = {
      {2.0, 1.0}, {4.0, 2.0}, {1.0, 1.0}, {6.0, 8.0}};
  const int k = 4;
  const double lp = lp_lower_bound(jobs, k);
  const double best = best_static_priority_cost(jobs, k);
  const double alg = srpt_k_schedule(jobs, k).total_response_time;
  EXPECT_LE(lp, best + 1e-9);
  EXPECT_LE(best, alg + 1e-9);
}

struct RandomInstanceCase {
  int n;
  int k;
  std::uint64_t seed;
};

class Theorem9 : public testing::TestWithParam<RandomInstanceCase> {};

// Theorem 9: SRPT-k total response time is within 4x of the LP bound.
TEST_P(Theorem9, FourApproximationHolds) {
  const RandomInstanceCase& c = GetParam();
  Xoshiro256 rng(c.seed);
  std::vector<BatchJob> jobs;
  jobs.reserve(static_cast<std::size_t>(c.n));
  for (int j = 0; j < c.n; ++j) {
    BatchJob job;
    // Sizes spread over two orders of magnitude; caps mix sequential
    // (cap 1) and parallelizable jobs.
    job.size = std::exp(uniform(rng, -1.5, 3.0));
    job.cap = bernoulli(rng, 0.5)
                  ? 1.0
                  : 1.0 + std::floor(uniform(rng, 0.0, 2.0 * c.k));
    jobs.push_back(job);
  }
  const double alg = srpt_k_schedule(jobs, c.k).total_response_time;
  const double lp = lp_lower_bound(jobs, c.k);
  ASSERT_GT(lp, 0.0);
  EXPECT_LE(alg / lp, 4.0) << "n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Theorem9,
    testing::Values(RandomInstanceCase{5, 2, 1}, RandomInstanceCase{10, 4, 2},
                    RandomInstanceCase{50, 4, 3},
                    RandomInstanceCase{50, 16, 4},
                    RandomInstanceCase{200, 8, 5},
                    RandomInstanceCase{1000, 8, 6},
                    RandomInstanceCase{1000, 32, 7},
                    RandomInstanceCase{5000, 16, 8}));

TEST(Theorem9, AllCapOneMatchesSrptKClassic) {
  // With caps all 1 the schedule is classic SRPT-k; ratio still <= 4 and
  // typically much smaller.
  Xoshiro256 rng(99);
  std::vector<BatchJob> jobs;
  for (int j = 0; j < 400; ++j) {
    jobs.push_back({std::exp(uniform(rng, -1.0, 2.0)), 1.0});
  }
  const double alg = srpt_k_schedule(jobs, 8).total_response_time;
  const double lp = lp_lower_bound(jobs, 8);
  EXPECT_LE(alg / lp, 4.0);
  EXPECT_GE(alg / lp, 1.0);
}

TEST(BestStaticPriority, RefusesLargeInstances) {
  std::vector<BatchJob> jobs(10, BatchJob{1.0, 1.0});
  EXPECT_THROW(best_static_priority_cost(jobs, 2), Error);
}

}  // namespace
}  // namespace esched
