// Tests for online SRPT-k with release times and its lower bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "studies/lp_bound.hpp"
#include "studies/srpt_online.hpp"
#include "support/sampling.hpp"

namespace esched {
namespace {

TEST(SrptOnline, SingleJobRunsAtRelease) {
  const OnlineScheduleResult r =
      srpt_k_online({{2.0, 4.0, 2.0}}, 4);
  // Released at 2, size 4, cap 2: finishes at 2 + 2 = 4; response 2.
  EXPECT_DOUBLE_EQ(r.completion_times[0], 4.0);
  EXPECT_DOUBLE_EQ(r.total_response_time, 2.0);
}

TEST(SrptOnline, PreemptsForShorterArrival) {
  // k = 1. Long job (size 10) at t = 0; short job (size 1) at t = 1.
  // SRPT preempts: short finishes at 2, long at 11.
  const OnlineScheduleResult r =
      srpt_k_online({{0.0, 10.0, 1.0}, {1.0, 1.0, 1.0}}, 1);
  EXPECT_DOUBLE_EQ(r.completion_times[1], 2.0);
  EXPECT_DOUBLE_EQ(r.completion_times[0], 11.0);
  EXPECT_DOUBLE_EQ(r.total_response_time, 11.0 + 1.0);
}

TEST(SrptOnline, IdlesUntilFirstRelease) {
  const OnlineScheduleResult r =
      srpt_k_online({{5.0, 1.0, 1.0}, {6.0, 1.0, 1.0}}, 2);
  EXPECT_DOUBLE_EQ(r.completion_times[0], 6.0);
  EXPECT_DOUBLE_EQ(r.completion_times[1], 7.0);
}

TEST(SrptOnline, MatchesBatchVariantWhenOrderIsStable) {
  // With all releases at 0 and caps 1 on k = 2, remaining-size priority
  // equals inherent-size priority throughout (prefix jobs finish first),
  // so online SRPT-k equals the batch scheduler.
  const std::vector<OnlineJob> online = {
      {0.0, 3.0, 1.0}, {0.0, 1.0, 1.0}, {0.0, 2.0, 1.0}, {0.0, 5.0, 1.0}};
  std::vector<BatchJob> batch;
  for (const auto& j : online) batch.push_back({j.size, j.cap});
  const OnlineScheduleResult a = srpt_k_online(online, 2);
  const BatchScheduleResult b = srpt_k_schedule(batch, 2);
  EXPECT_NEAR(a.total_response_time, b.total_response_time, 1e-12);
}

TEST(SrptOnline, RejectsBadInput) {
  EXPECT_THROW(srpt_k_online({}, 2), Error);
  EXPECT_THROW(srpt_k_online({{-1.0, 1.0, 1.0}}, 2), Error);
  EXPECT_THROW(srpt_k_online({{0.0, 0.0, 1.0}}, 2), Error);
  EXPECT_THROW(srpt_k_online({{0.0, 1.0, 1.0}}, 0), Error);
}

TEST(SingleMachineSrpt, KnownSchedule) {
  // Speed 1, jobs (0, 3), (1, 1): SRPT runs job0 for 1, preempts for
  // job1 (finishes at 2), job0 finishes at 4. Total = 4 + 1.
  const double cost =
      single_machine_srpt_cost({{0.0, 3.0, 1.0}, {1.0, 1.0, 1.0}}, 1.0);
  EXPECT_DOUBLE_EQ(cost, 5.0);
}

TEST(SingleMachineSrpt, SpeedScales) {
  const std::vector<OnlineJob> jobs = {{0.0, 4.0, 1.0}, {0.0, 2.0, 1.0}};
  // Speed 2: sizes effectively halved, no releases: cost halves.
  EXPECT_DOUBLE_EQ(single_machine_srpt_cost(jobs, 2.0),
                   single_machine_srpt_cost(jobs, 1.0) / 2.0);
}

TEST(OnlineLowerBound, BelowTheAlgorithmOnRandomInstances) {
  Xoshiro256 rng(2718);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 5 + static_cast<int>(uniform_index(rng, 80));
    const int k = 1 + static_cast<int>(uniform_index(rng, 8));
    std::vector<OnlineJob> jobs;
    double t = 0.0;
    for (int j = 0; j < n; ++j) {
      t += exponential(rng, 1.0);
      jobs.push_back({t, std::exp(uniform(rng, -1.5, 2.0)),
                      bernoulli(rng, 0.5)
                          ? 1.0
                          : 1.0 + std::floor(uniform(rng, 0.0, 1.5 * k))});
    }
    const double alg = srpt_k_online(jobs, k).total_response_time;
    const double lb = online_lower_bound(jobs, k);
    ASSERT_GT(lb, 0.0);
    EXPECT_GE(alg, lb * (1.0 - 1e-9)) << "trial " << trial;
    // Not a theorem here, but on non-adversarial traffic online SRPT-k
    // stays within a small constant of the relaxation.
    EXPECT_LE(alg / lb, 8.0) << "trial " << trial;
  }
}

TEST(OnlineLowerBound, ProcessingBoundBindsForCappedJobs) {
  // One huge capped job alone: the processing bound x/min(cap,k) exceeds
  // the speed-k relaxation x/k.
  const std::vector<OnlineJob> jobs = {{0.0, 100.0, 1.0}};
  const double lb = online_lower_bound(jobs, 8);
  EXPECT_DOUBLE_EQ(lb, 100.0);  // not 100/8
}

TEST(SrptOnline, SingleServerEqualsSingleMachineSrpt) {
  // On k = 1 the multi-server scheduler IS single-machine SRPT (caps are
  // irrelevant), and single-machine SRPT is optimal — so the two engines
  // must agree exactly and the "lower bound" is tight.
  Xoshiro256 rng(31415);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<OnlineJob> jobs;
    double t = 0.0;
    const int n = 10 + static_cast<int>(uniform_index(rng, 60));
    for (int j = 0; j < n; ++j) {
      t += exponential(rng, 0.8);
      jobs.push_back({t, std::exp(uniform(rng, -1.0, 1.5)),
                      1.0 + std::floor(uniform(rng, 0.0, 3.0))});
    }
    const double multi = srpt_k_online(jobs, 1).total_response_time;
    const double single = single_machine_srpt_cost(jobs, 1.0);
    EXPECT_NEAR(multi, single, 1e-9 * multi) << "trial " << trial;
    EXPECT_NEAR(online_lower_bound(jobs, 1), multi, 1e-9 * multi);
  }
}

}  // namespace
}  // namespace esched
