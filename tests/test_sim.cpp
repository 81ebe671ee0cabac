// Tests for the job-level and state-level simulators: closed-form M/M/1 /
// M/M/k sanity, agreement with the analysis, Little's law, invariant
// checking, and the phase-type size extension.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/ctmc_sim.hpp"
#include "sim/fcfs.hpp"
#include "stats/histogram.hpp"

namespace esched {
namespace {

SimOptions fast_sim(std::uint64_t seed = 1) {
  SimOptions opt;
  opt.num_jobs = 120000;
  opt.warmup_jobs = 12000;
  opt.seed = seed;
  return opt;
}

TEST(ClusterSim, PureElasticIsMM1) {
  // Only elastic traffic under EF: the whole system is an M/M/1 with
  // service rate k mu_E.
  SystemParams p;
  p.k = 4;
  p.lambda_i = 0.0;
  p.lambda_e = 2.8;
  p.mu_i = 1.0;
  p.mu_e = 1.0;  // rho = 0.7
  SimOptions opt = fast_sim();
  opt.num_jobs = 250000;  // rho = 0.7 M/M/1 response times are long-range
  opt.warmup_jobs = 25000;  // correlated; more data tightens the estimate
  const SimResult r = simulate(p, ElasticFirst{}, opt);
  const MM1 ref(p.lambda_e, 4.0);
  EXPECT_LT(relative_error(r.mean_response_time.mean,
                           ref.mean_response_time()),
            0.05);
  EXPECT_LT(relative_error(r.mean_jobs_e, ref.mean_jobs()), 0.05);
}

TEST(ClusterSim, PureInelasticIsMMk) {
  SystemParams p;
  p.k = 4;
  p.lambda_i = 2.8;
  p.lambda_e = 0.0;
  p.mu_i = 1.0;
  p.mu_e = 1.0;
  const SimResult r = simulate(p, InelasticFirst{}, fast_sim(2));
  const MMk ref(p.lambda_i, p.mu_i, p.k);
  EXPECT_LT(relative_error(r.mean_response_time.mean,
                           ref.mean_response_time()),
            0.03);
}

TEST(ClusterSim, LittlesLawHolds) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const SimResult r = simulate(p, InelasticFirst{}, fast_sim(3));
  const double n_from_little =
      (p.lambda_i + p.lambda_e) * r.mean_response_time.mean;
  EXPECT_LT(relative_error(n_from_little, r.mean_jobs_i + r.mean_jobs_e),
            0.03);
}

TEST(ClusterSim, MatchesIfAnalysis) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const double analytic = analyze_inelastic_first(p).mean_response_time;
  const SimResult r = simulate(p, InelasticFirst{}, fast_sim(4));
  EXPECT_LT(relative_error(r.mean_response_time.mean, analytic), 0.03);
}

TEST(ClusterSim, MatchesEfAnalysis) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const double analytic = analyze_elastic_first(p).mean_response_time;
  const SimResult r = simulate(p, ElasticFirst{}, fast_sim(5));
  EXPECT_LT(relative_error(r.mean_response_time.mean, analytic), 0.03);
}

TEST(ClusterSim, UtilizationMatchesLoad) {
  // In steady state the served work rate must equal the arriving work rate
  // rho (per server).
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  const SimResult r = simulate(p, InelasticFirst{}, fast_sim(6));
  EXPECT_NEAR(r.utilization, 0.6, 0.02);
}

TEST(ClusterSim, InvariantCheckingRuns) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  SimOptions opt = fast_sim(7);
  opt.num_jobs = 20000;
  opt.warmup_jobs = 2000;
  opt.check_invariants = true;
  EXPECT_NO_THROW(simulate(p, FairShare{}, opt));
}

TEST(ClusterSim, SeedsChangeRealizationNotMean) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  const SimResult a = simulate(p, InelasticFirst{}, fast_sim(10));
  const SimResult b = simulate(p, InelasticFirst{}, fast_sim(11));
  EXPECT_NE(a.mean_response_time.mean, b.mean_response_time.mean);
  EXPECT_LT(relative_error(a.mean_response_time.mean,
                           b.mean_response_time.mean),
            0.05);
}

TEST(ClusterSim, DeterministicGivenSeed) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  SimOptions opt = fast_sim(12);
  opt.num_jobs = 20000;
  opt.warmup_jobs = 1000;
  const SimResult a = simulate(p, InelasticFirst{}, opt);
  const SimResult b = simulate(p, InelasticFirst{}, opt);
  EXPECT_DOUBLE_EQ(a.mean_response_time.mean, b.mean_response_time.mean);
  EXPECT_DOUBLE_EQ(a.sim_time, b.sim_time);
}

TEST(ClusterSim, PhaseTypeSizesChangeTheAnswer) {
  // Extension: hyperexponential elastic sizes with the same mean increase
  // variability; mean response time under EF must still be finite and the
  // simulator must honor the distribution's mean (arrival work balance).
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  const PhaseType hyper =
      PhaseType::hyperexponential({0.9, 0.1}, {9.0 / 5.0, 1.0 / 5.0});
  ASSERT_NEAR(hyper.mean(), 1.0, 1e-12);  // same mean as Exp(mu_e = 1)
  SimOptions opt = fast_sim(13);
  opt.size_dist_e = &hyper;
  const SimResult r = simulate(p, InelasticFirst{}, opt);
  EXPECT_NEAR(r.utilization, 0.6, 0.03);
  EXPECT_GT(r.mean_response_time.mean, 0.0);
}

// Every SimResult field and the median/P99 of both response-time
// histograms, in a fixed order, for the bitwise pin below.
std::vector<double> pinned_fields(const SimResult& r, const Histogram& hist_i,
                                  const Histogram& hist_e) {
  return {r.mean_response_time.mean,
          r.mean_response_time.half_width,
          r.inelastic.response_time.mean,
          r.inelastic.response_time.half_width,
          static_cast<double>(r.inelastic.completed),
          r.elastic.response_time.mean,
          r.elastic.response_time.half_width,
          static_cast<double>(r.elastic.completed),
          r.mean_jobs_i,
          r.mean_jobs_e,
          r.mean_work,
          r.utilization,
          r.sim_time,
          hist_i.quantile(0.5),
          hist_i.quantile(0.99),
          hist_e.quantile(0.5),
          hist_e.quantile(0.99)};
}

std::string hexfloat(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(ClusterSim, BitwisePinned) {
  // The CSV goldens print 12 significant digits, so this is what pins the
  // simulator's bits: the same RNG draws in the same order and the same
  // floating-point operations in the same order. The expected values were
  // recorded from the event loop before it stopped allocating per event
  // (std::deque queues, per-event rate vectors, stored overall response
  // times). Never regenerate them to make a change pass.
  const PhaseType hyper =
      PhaseType::hyperexponential({0.9, 0.1}, {9.0 / 5.0, 1.0 / 5.0});
  SystemParams capped = SystemParams::from_load(4, 1.0, 1.0, 0.8);
  capped.elastic_cap = 2;
  struct Case {
    const char* name;
    SystemParams params;
    PolicyPtr policy;
    std::uint64_t warmup_jobs;
    const PhaseType* sizes;  // both classes; nullptr = exponential
    std::vector<double> expected;
  };
  const std::vector<Case> cases = {
      // Queues grow past the job ring's initial capacity and wrap.
      {"IF rho 0.95", SystemParams::from_load(4, 1.0, 1.0, 0.95),
       make_inelastic_first(), 2000, nullptr, {
       0x1.75353ca9194c9p+2, 0x1.b9b7b9c4ed63dp+0, 0x1.12a798572054p+0,
       0x1.171b6b5fbb5a7p-5, 0x1.3a28p+13, 0x1.5440c5190abbcp+3,
       0x1.c3140c23f83b1p+1, 0x1.36d8p+13, 0x1.095d9a2c3c381p+1,
       0x1.45355d9c36a48p+4, 0x1.619ea1abe0dcbp+4, 0x1.ebb3ead3cc079p-1,
       0x1.65e1e04bc2f8fp+12, 0x1.92474bd7339aap-1,
       0x1.2e7b272f6086ep+2, 0x1.e3f15f15f15f2p+2, 0x1.443c450bfed49p+5}},
      {"EF rho 0.95", SystemParams::from_load(4, 1.0, 1.0, 0.95),
       make_elastic_first(), 2000, nullptr, {
       0x1.791c202c81172p+2, 0x1.be07d6b790164p+0, 0x1.68084037d3aa1p+3,
       0x1.83b6598f442f6p+1, 0x1.3a88p+13, 0x1.d65dda22172dp-2,
       0x1.47de6de7a25ebp-6, 0x1.3678p+13, 0x1.5bfb0c2d3ebc3p+4,
       0x1.c19ec6f9fce52p-1, 0x1.6ab351c9e971bp+4, 0x1.ebb1744670251p-1,
       0x1.65daef99dc103p+12, 0x1.090e560418937p+3,
       0x1.37c28f5c28f5dp+5, 0x1.537b709a97e27p-2, 0x1.118cff3659cbdp+1}},
      // Several elastic jobs in service; completions at idx > 0.
      {"FairShare cap 2", capped, make_fair_share(), 2000, nullptr, {
       0x1.a36c2a41dbd5ap+0, 0x1.d748994d7c9b9p-3, 0x1.befd91741effcp+0,
       0x1.ee3295da65ca2p-3, 0x1.3a4p+13, 0x1.86f2f74718c35p+0,
       0x1.8bdd740d84fc9p-3, 0x1.36cp+13, 0x1.6c1bafbe9717cp+1,
       0x1.39cf472eea7bcp+1, 0x1.5042df212f528p+2, 0x1.9e11b71248d93p-1,
       0x1.a89a89d85258fp+12, 0x1.4dbb51b98b67p+0, 0x1.e6f694467382ap+2,
       0x1.1a5a1556dc692p+0, 0x1.a007dd441355p+2}},
      {"IF hyperexp", SystemParams::from_load(4, 1.0, 1.0, 0.8),
       make_inelastic_first(), 2000, &hyper, {
       0x1.ed2e44039ae3ap+1, 0x1.2fd2549e7e883p+0, 0x1.2f2adcee83d01p+0,
       0x1.41691e73d02f7p-4, 0x1.39fp+13, 0x1.a3250bd83dc4bp+2,
       0x1.5b0dac8a3f652p+1, 0x1.371p+13, 0x1.ede0a40ce4919p+0,
       0x1.500528113765bp+3, 0x1.17fe433a4acf7p+4, 0x1.ae3232584b037p-1,
       0x1.a89a7a870dd9cp+12, 0x1.09fa6014f52cbp-1,
       0x1.8743958106234p+3, 0x1.87e07e07e07e1p+1, 0x1.7ac49ba5e3534p+5}},
      {"FairShare no warmup", SystemParams::from_load(4, 2.0, 1.0, 0.7),
       make_fair_share(), 0, nullptr, {
       0x1.7d7fdf8984af5p-1, 0x1.6e7442dfa2411p-5, 0x1.3f94af8f47a55p-1,
       0x1.e27857b81d475p-6, 0x1.398p+13, 0x1.bbfc5894c044fp-1,
       0x1.069c0cb14f464p-4, 0x1.378p+13, 0x1.2ebef1f920bep+0,
       0x1.a1e638e485b9ep+0, 0x1.187b002dc875bp+1, 0x1.68b59e708a2d9p-1,
       0x1.4ade28f96e448p+12, 0x1.cfcebf001b2ccp-2,
       0x1.516872b020c4fp+1, 0x1.3cfb1c0b93cfcp-1, 0x1.ff3e3dcbd20d7p+1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Histogram hist_i(0.0, 100.0, 500);
    Histogram hist_e(0.0, 100.0, 500);
    SimOptions opt;
    opt.num_jobs = 20000;
    opt.warmup_jobs = c.warmup_jobs;
    opt.seed = 31;
    opt.size_dist_i = c.sizes;
    opt.size_dist_e = c.sizes;
    opt.response_hist_i = &hist_i;
    opt.response_hist_e = &hist_e;
    const std::vector<double> actual =
        pinned_fields(simulate(c.params, *c.policy, opt), hist_i, hist_e);
    if (actual.size() != c.expected.size()) {
      std::string listing;
      for (double x : actual) listing += hexfloat(x) + ", ";
      ADD_FAILURE() << "expected " << c.expected.size()
                    << " fields; actual: {" << listing << "}";
      continue;
    }
    for (std::size_t n = 0; n < actual.size(); ++n) {
      EXPECT_EQ(hexfloat(actual[n]), hexfloat(c.expected[n])) << "field " << n;
    }
  }
}

TEST(ClusterSim, RejectsNoArrivals) {
  SystemParams p;
  p.k = 2;
  p.mu_i = 1.0;
  p.mu_e = 1.0;
  EXPECT_THROW(simulate(p, InelasticFirst{}, fast_sim()), Error);
}

TEST(JobRing, KeepsFcfsOrderThroughWrapGrowthAndPrefixErase) {
  // Mirrors a std::deque through pushes, head and mid-prefix erases: the
  // head wraps around the ring, and the ring grows while wrapped.
  sim_detail::JobRing ring;
  std::deque<double> ref;
  double next = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int n = 0; n < 3; ++n) {
      ring.push_back({next, next});
      ref.push_back(next);
      next += 1.0;
    }
    const std::size_t idx = static_cast<std::size_t>(round) % 3;
    ring.erase(idx);
    ref.erase(ref.begin() + static_cast<long>(idx));
    if (round % 2 == 0) {
      ring.erase(0);
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      ASSERT_EQ(ring[n].remaining, ref[n]) << "round " << round;
    }
  }
}

TEST(CtmcSim, AgreesWithJobLevelSimulator) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  CtmcSimOptions copt;
  copt.horizon = 300000.0;
  copt.warmup = 30000.0;
  copt.seed = 21;
  const CtmcSimResult fast = simulate_ctmc(p, InelasticFirst{}, copt);
  const SimResult slow = simulate(p, InelasticFirst{}, fast_sim(22));
  EXPECT_LT(relative_error(fast.mean_response_time,
                           slow.mean_response_time.mean),
            0.04);
}

TEST(CtmcSim, MatchesAnalysis) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.8);
  CtmcSimOptions copt;
  copt.horizon = 400000.0;
  copt.warmup = 40000.0;
  copt.seed = 23;
  const CtmcSimResult r = simulate_ctmc(p, InelasticFirst{}, copt);
  const double analytic = analyze_inelastic_first(p).mean_response_time;
  EXPECT_LT(relative_error(r.mean_response_time, analytic), 0.04);
}

TEST(CtmcSim, RejectsBadHorizon) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  CtmcSimOptions copt;
  copt.horizon = 10.0;
  copt.warmup = 20.0;
  EXPECT_THROW(simulate_ctmc(p, InelasticFirst{}, copt), Error);
}

}  // namespace
}  // namespace esched
