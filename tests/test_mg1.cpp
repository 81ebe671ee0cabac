// Tests for the M/G/1 Pollaczek-Khinchine module, including the library's
// real use for it: under EF, the elastic class with phase-type sizes is an
// M/G/1 at speed k, validated against the job-level simulator.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/params.hpp"
#include "core/policies.hpp"
#include "phase/phase_type.hpp"
#include "queueing/mm1.hpp"
#include "sim/cluster_sim.hpp"
#include "support/mg1.hpp"

namespace esched {
namespace {

TEST(MG1, ReducesToMM1ForExponentialService) {
  const double lambda = 0.7;
  const double mu = 1.3;
  const MG1 general(lambda, 1.0 / mu, 2.0 / (mu * mu));
  const MM1 markov(lambda, mu);
  EXPECT_NEAR(general.mean_response_time(), markov.mean_response_time(),
              1e-12);
  EXPECT_NEAR(general.mean_wait(), markov.mean_response_time() - 1.0 / mu,
              1e-12);
  EXPECT_NEAR(general.mean_jobs(), markov.mean_jobs(), 1e-12);
}

TEST(MG1, PhaseTypeConstructorUsesMoments) {
  const PhaseType service = PhaseType::erlang(4, 4.0);  // mean 1, scv 1/4
  const MG1 q(0.5, service);
  EXPECT_NEAR(q.s1, 1.0, 1e-12);
  EXPECT_NEAR(q.s2, service.raw_moment(2), 1e-12);
}

TEST(MG1, SpeedScalesService) {
  const PhaseType service = PhaseType::exponential(1.0);
  const MG1 slow(0.5, service, 1.0);
  const MG1 fast(0.5, service, 2.0);
  EXPECT_NEAR(fast.s1, slow.s1 / 2.0, 1e-12);
  EXPECT_LT(fast.mean_response_time(), slow.mean_response_time());
}

TEST(MG1, LowerVariabilityMeansLessWaiting) {
  // Same mean service, utilization 0.8: deterministic-ish (Erlang) waits
  // half as long as exponential; hyperexponential waits longer.
  const double lambda = 0.8;
  const MG1 erlang(lambda, PhaseType::erlang(8, 8.0));
  const MG1 expo(lambda, PhaseType::exponential(1.0));
  const MG1 hyper(lambda,
                  PhaseType::hyperexponential({0.9, 0.1}, {1.8, 0.2}));
  EXPECT_LT(erlang.mean_wait(), expo.mean_wait());
  EXPECT_GT(hyper.mean_wait(), expo.mean_wait());
  // PK ratio for Erlang-8: (1 + 1/8)/2 of the exponential wait.
  EXPECT_NEAR(erlang.mean_wait() / expo.mean_wait(), (1.0 + 1.0 / 8.0) / 2.0,
              1e-9);
}

TEST(MG1, UnstableAndInvalidInputsThrow) {
  EXPECT_THROW(MG1(2.0, 1.0, 2.0).mean_wait(), Error);
  EXPECT_THROW(MG1(0.5, 0.0, 1.0), Error);
  EXPECT_THROW(MG1(0.5, 1.0, 0.5), Error);  // E[S^2] < E[S]^2
}

TEST(MG1, MatchesSimulatedElasticClassUnderEF) {
  // EF with only elastic traffic and hyperexponential sizes: the system is
  // an M/G/1 with service S/k.
  SystemParams p;
  p.k = 4;
  p.lambda_i = 0.0;
  p.lambda_e = 2.4;
  p.mu_i = 1.0;
  p.mu_e = 1.0;
  const PhaseType sizes =
      PhaseType::hyperexponential({0.8, 0.2}, {1.6, 0.4});
  ASSERT_NEAR(sizes.mean(), 1.0, 1e-12);

  const MG1 reference(p.lambda_e, sizes, 4.0);
  SimOptions opt;
  opt.num_jobs = 200000;
  opt.warmup_jobs = 20000;
  opt.seed = 88;
  opt.size_dist_e = &sizes;
  const SimResult sim = simulate(p, ElasticFirst{}, opt);
  EXPECT_LT(relative_error(sim.mean_response_time.mean,
                           reference.mean_response_time()),
            0.05);
}

TEST(MG1, MatchesSimulatedErlangServiceToo) {
  SystemParams p;
  p.k = 2;
  p.lambda_i = 0.0;
  p.lambda_e = 1.2;
  p.mu_i = 1.0;
  p.mu_e = 1.0;
  const PhaseType sizes = PhaseType::erlang(3, 3.0);  // mean 1, scv 1/3
  const MG1 reference(p.lambda_e, sizes, 2.0);
  SimOptions opt;
  opt.num_jobs = 150000;
  opt.warmup_jobs = 15000;
  opt.seed = 89;
  opt.size_dist_e = &sizes;
  const SimResult sim = simulate(p, ElasticFirst{}, opt);
  EXPECT_LT(relative_error(sim.mean_response_time.mean,
                           reference.mean_response_time()),
            0.05);
}

}  // namespace
}  // namespace esched
