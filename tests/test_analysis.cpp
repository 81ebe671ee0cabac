// Tests for the §5 / Appendix D response-time analyses: the busy-period
// transformation + QBD pipeline must agree with the exact truncated 2-D
// chain to within the paper's stated ~1% accuracy, and must reduce to
// closed forms in the degenerate cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/nested_dissection.hpp"
#include "markov/stationary.hpp"
#include "obs/metrics.hpp"
#include "phase/phase_type.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"

namespace esched {
namespace {

ExactCtmcOptions tight_truncation(const SystemParams& p) {
  ExactCtmcOptions opt;
  const long level = suggested_truncation(p.rho(), 1e-9);
  opt.imax = level;
  opt.jmax = level;
  return opt;
}

TEST(EfAnalysis, ElasticClassIsExactMM1) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ResponseTimeAnalysis a = analyze_elastic_first(p);
  const MM1 ref(p.lambda_e, 4.0 * p.mu_e);
  EXPECT_NEAR(a.mean_response_time_e, ref.mean_response_time(), 1e-12);
  EXPECT_NEAR(a.mean_jobs_e, ref.mean_jobs(), 1e-12);
}

TEST(IfAnalysis, InelasticClassIsExactMMk) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ResponseTimeAnalysis a = analyze_inelastic_first(p);
  const MMk ref(p.lambda_i, p.mu_i, p.k);
  EXPECT_NEAR(a.mean_response_time_i, ref.mean_response_time(), 1e-12);
  EXPECT_NEAR(a.mean_jobs_i, ref.mean_jobs(), 1e-12);
}

TEST(EfAnalysis, MatchesExactChainAcrossLoads) {
  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const ResponseTimeAnalysis approx = analyze_elastic_first(p);
    const ExactCtmcResult exact =
        solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
    EXPECT_LT(relative_error(approx.mean_response_time,
                             exact.mean_response_time),
              0.015)
        << "rho=" << rho;
  }
}

TEST(IfAnalysis, MatchesExactChainAcrossLoads) {
  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const ResponseTimeAnalysis approx = analyze_inelastic_first(p);
    const ExactCtmcResult exact =
        solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
    EXPECT_LT(relative_error(approx.mean_response_time,
                             exact.mean_response_time),
              0.015)
        << "rho=" << rho;
  }
}

// Parameterized accuracy sweep over the paper's Figure 4/5 parameter space.
struct AccuracyCase {
  int k;
  double mu_i;
  double mu_e;
  double rho;
};

class AnalysisAccuracy : public testing::TestWithParam<AccuracyCase> {};

TEST_P(AnalysisAccuracy, EfWithinOnePercentOfExact) {
  const AccuracyCase& c = GetParam();
  const SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
  const ResponseTimeAnalysis approx = analyze_elastic_first(p);
  const ExactCtmcResult exact =
      solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(approx.mean_response_time, exact.mean_response_time),
      0.012)
      << "k=" << c.k << " mu_i=" << c.mu_i << " mu_e=" << c.mu_e
      << " rho=" << c.rho;
}

TEST_P(AnalysisAccuracy, IfWithinOnePercentOfExact) {
  const AccuracyCase& c = GetParam();
  const SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
  const ResponseTimeAnalysis approx = analyze_inelastic_first(p);
  const ExactCtmcResult exact =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(approx.mean_response_time, exact.mean_response_time),
      0.012)
      << "k=" << c.k << " mu_i=" << c.mu_i << " mu_e=" << c.mu_e
      << " rho=" << c.rho;
}

INSTANTIATE_TEST_SUITE_P(
    Fig45Grid, AnalysisAccuracy,
    testing::Values(AccuracyCase{4, 0.25, 1.0, 0.5},
                    AccuracyCase{4, 0.25, 1.0, 0.9},
                    AccuracyCase{4, 3.25, 1.0, 0.5},
                    AccuracyCase{4, 3.25, 1.0, 0.9},
                    AccuracyCase{4, 1.0, 2.0, 0.7},
                    AccuracyCase{4, 2.0, 0.5, 0.7},
                    AccuracyCase{2, 0.5, 1.0, 0.7},
                    AccuracyCase{8, 1.5, 1.0, 0.7},
                    AccuracyCase{16, 1.0, 1.0, 0.9}));

TEST(Analysis, SingleServerDegenerateCase) {
  // k = 1: both classes are just priority classes on one server; the
  // analyses must still run and match the exact chain.
  const SystemParams p = SystemParams::from_load(1, 1.5, 1.0, 0.6);
  const ResponseTimeAnalysis ef = analyze_elastic_first(p);
  const ResponseTimeAnalysis ifa = analyze_inelastic_first(p);
  const ExactCtmcResult exact_ef =
      solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
  const ExactCtmcResult exact_if =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(ef.mean_response_time, exact_ef.mean_response_time),
      0.012);
  EXPECT_LT(
      relative_error(ifa.mean_response_time, exact_if.mean_response_time),
      0.012);
}

TEST(Analysis, UnstableSystemThrows) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.99);
  p.lambda_i *= 1.2;  // push rho past 1
  ASSERT_GE(p.rho(), 1.0);
  EXPECT_THROW(analyze_elastic_first(p), Error);
  EXPECT_THROW(analyze_inelastic_first(p), Error);
}

TEST(Analysis, QbdMatchesConvergedReferenceAtHighLoad) {
  // References: Neuts' fixed point R <- -(A0 + R^2 A2) A1^{-1} iterated to
  // a 1e-18 max-abs step. Stopping that linear iteration at a 1e-14 step
  // leaves E[T] ~8e-12 relative off at these slow-mixing points.
  const ResponseTimeAnalysis ifa =
      analyze_inelastic_first(SystemParams::from_load(4, 0.25, 3.5, 0.9));
  EXPECT_LT(relative_error(ifa.mean_response_time, 29.024513245273457),
            1e-13);
  const ResponseTimeAnalysis ef =
      analyze_elastic_first(SystemParams::from_load(4, 3.5, 0.25, 0.9));
  EXPECT_LT(relative_error(ef.mean_response_time, 29.953003857099294),
            1e-13);
  // Where 1 - G 1 stalls at roundoff (~1e-14) the reduction still stops on
  // its increment, within a handful of steps.
  const ResponseTimeAnalysis stall =
      analyze_inelastic_first(SystemParams::from_load(4, 0.25, 1.3, 0.9));
  EXPECT_LE(stall.qbd_iterations, 16);
  EXPECT_TRUE(std::isfinite(stall.mean_response_time));
}

TEST(Analysis, ResponseTimeGrowsWithLoad) {
  double prev_ef = 0.0;
  double prev_if = 0.0;
  for (double rho : {0.2, 0.4, 0.6, 0.8, 0.9, 0.95}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const double ef = analyze_elastic_first(p).mean_response_time;
    const double ifa = analyze_inelastic_first(p).mean_response_time;
    EXPECT_GT(ef, prev_ef);
    EXPECT_GT(ifa, prev_if);
    prev_ef = ef;
    prev_if = ifa;
  }
}

TEST(Analysis, LittlesLawInternalConsistency) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.8);
  const ResponseTimeAnalysis ef = analyze_elastic_first(p);
  EXPECT_NEAR(ef.mean_response_time,
              (ef.mean_jobs_i + ef.mean_jobs_e) / (p.lambda_i + p.lambda_e),
              1e-12);
  const ResponseTimeAnalysis ifa = analyze_inelastic_first(p);
  EXPECT_NEAR(ifa.mean_response_time,
              (ifa.mean_jobs_i + ifa.mean_jobs_e) / (p.lambda_i + p.lambda_e),
              1e-12);
}

TEST(ExactCtmc, TruncationMassIsSmall) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ExactCtmcResult r =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(r.boundary_mass, 1e-6);
}

TEST(ExactCtmc, SuggestedTruncationScalesWithLoad) {
  EXPECT_LT(suggested_truncation(0.3), suggested_truncation(0.9));
  EXPECT_GE(suggested_truncation(0.0), 16);
  EXPECT_LE(suggested_truncation(0.999999), 400);
  EXPECT_THROW(suggested_truncation(1.5), Error);
}

TEST(ExactCtmc, AutoSelectsGthSmallAndBlockLarge) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions small;
  small.imax = 10;
  small.jmax = 10;  // 121 states <= auto's 500-state GTH limit
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, small).solve_info.method,
            "gth");
  ExactCtmcOptions large;
  large.imax = 30;
  large.jmax = 30;  // 961 states > the GTH limit -> block
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, large).solve_info.method,
            "block");
}

std::uint64_t counter_total(const std::string& name) {
  return global_metrics().counter(name).total();
}

/// Auto-routed solve of `policy` that also reports which block ordering
/// ran: 'i' or 'j' for levels along that axis, 'n' for nested dissection,
/// '-' when the block method did not run.
ExactCtmcResult solve_auto(const SystemParams& p,
                           const AllocationPolicy& policy,
                           const ExactCtmcOptions& options, char* ordering) {
  const char* names[] = {"exact.method.block.axis.i",
                         "exact.method.block.axis.j", "exact.method.block.nd"};
  std::uint64_t before[3];
  for (int c = 0; c < 3; ++c) before[c] = counter_total(names[c]);
  ExactCtmcResult r = solve_exact_ctmc(p, policy, options);
  const std::uint64_t di = counter_total(names[0]) - before[0];
  const std::uint64_t dj = counter_total(names[1]) - before[1];
  const std::uint64_t dn = counter_total(names[2]) - before[2];
  EXPECT_LE(di + dj + dn, 1u);
  *ordering = di == 1 ? 'i' : dj == 1 ? 'j' : dn == 1 ? 'n' : '-';
  return r;
}

/// The exponential (N_I, N_E) chain of `policy` on the (imax + 1) x
/// (jmax + 1) grid, state i * (jmax + 1) + j, with the same rates
/// solve_exact_ctmc builds.
SparseCtmc policy_chain(const SystemParams& p, const AllocationPolicy& policy,
                        long imax, long jmax) {
  const long nj = jmax + 1;
  SparseCtmc chain(static_cast<std::size_t>((imax + 1) * nj));
  for (long i = 0; i <= imax; ++i) {
    for (long j = 0; j <= jmax; ++j) {
      const auto s = static_cast<std::size_t>(i * nj + j);
      const Allocation a = policy.allocate({i, j}, p);
      if (i > 0 && a.inelastic > 0.0) {
        chain.add_rate(s, s - static_cast<std::size_t>(nj),
                       a.inelastic * p.mu_i);
      }
      const double usable = p.usable_elastic(a.elastic, j);
      if (j > 0 && usable > 0.0) chain.add_rate(s, s - 1, usable * p.mu_e);
      if (j < jmax) chain.add_rate(s, s + 1, p.lambda_e);
      if (i < imax) {
        chain.add_rate(s, s + static_cast<std::size_t>(nj), p.lambda_i);
      }
    }
  }
  chain.freeze();
  return chain;
}

/// Level vectors of an ni x nj grid along N_I (level = i) or N_E (= j).
std::vector<std::uint32_t> grid_levels(long ni, long nj, bool by_j) {
  std::vector<std::uint32_t> level_of(static_cast<std::size_t>(ni * nj));
  for (std::size_t s = 0; s < level_of.size(); ++s) {
    const auto nj_size = static_cast<std::size_t>(nj);
    level_of[s] = static_cast<std::uint32_t>(by_j ? s % nj_size : s / nj_size);
  }
  return level_of;
}

/// E[N_I] and E[T] of a stationary vector of the policy_chain grid with
/// jmax + 1 columns.
struct GridMeans {
  double mean_jobs_i = 0.0;
  double mean_response_time = 0.0;
};

GridMeans grid_means(const SystemParams& p, const Vector& pi, long jmax) {
  const auto nj = static_cast<std::size_t>(jmax + 1);
  GridMeans means;
  double jobs = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    means.mean_jobs_i += static_cast<double>(s / nj) * pi[s];
    jobs += static_cast<double>(s / nj + s % nj) * pi[s];
  }
  means.mean_response_time = jobs / (p.lambda_i + p.lambda_e);
  return means;
}

/// pi agrees with `reference` to `rel` relative on every state holding
/// more than 1e-12 mass.
void expect_relative_match(const Vector& pi, const Vector& reference,
                           double rel) {
  ASSERT_EQ(pi.size(), reference.size());
  for (std::size_t s = 0; s < pi.size(); ++s) {
    if (reference[s] > 1e-12) {
      EXPECT_NEAR(pi[s], reference[s], rel * reference[s]) << "state " << s;
    }
  }
}

TEST(ExactCtmc, AllStationarySolversAgree) {
  // Auto solves this 441-state chain with dense GTH; every reference solver
  // run directly on the same chain must agree with it.
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  const long imax = 20, jmax = 20;  // 441 states
  ExactCtmcOptions options;
  options.imax = imax;
  options.jmax = jmax;
  const ExactCtmcResult automatic =
      solve_exact_ctmc(p, InelasticFirst{}, options);
  EXPECT_EQ(automatic.solve_info.method, "gth");

  const SparseCtmc chain = policy_chain(p, InelasticFirst{}, imax, jmax);
  const GridMeans gth = grid_means(
      p, gth_stationary(chain.rate_matrix(), chain.exit_rates()), jmax);
  const GridMeans block = grid_means(
      p,
      block_tridiagonal_stationary(chain.rate_matrix(), chain.exit_rates(),
                                   grid_levels(imax + 1, jmax + 1, false)),
      jmax);
  const GridMeans nd = grid_means(
      p,
      nested_dissection_stationary(chain.rate_matrix(), chain.exit_rates(),
                                   imax + 1, jmax + 1),
      jmax);
  // The direct solvers agree to near machine precision.
  for (const GridMeans& direct : {gth, block, nd}) {
    EXPECT_NEAR(automatic.mean_response_time, direct.mean_response_time,
                1e-10);
    EXPECT_NEAR(automatic.mean_jobs_i, direct.mean_jobs_i, 1e-10);
  }
}

TEST(ExactCtmc, PhaseTypeWithExponentialSizesMatchesTheExponentialChain) {
  // With Exp(mu_I) sizes the phase-augmented chain is a lumpable refinement
  // of the (N_I, N_E) chain: EF's paused jobs keep their (single) phase as
  // extra states, so its chain is larger, but the means are the same.
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  const AllocationPolicy* policies[] = {&inelastic_first, &elastic_first};
  ExactCtmcOptions options;
  options.imax = options.jmax = 30;  // 961 exponential states
  for (const AllocationPolicy* policy : policies) {
    for (int k : {1, 2, 4}) {
      for (double rho : {0.5, 0.8}) {
        SCOPED_TRACE(::testing::Message()
                     << policy->name() << " k=" << k << " rho=" << rho);
        const SystemParams p = SystemParams::from_load(k, 1.0, 1.0, rho);
        const ExactCtmcResult exponential =
            solve_exact_ctmc(p, *policy, options);
        const ExactCtmcResult ph = solve_exact_ctmc_ph(
            p, *policy, PhaseType::exponential(p.mu_i), options);
        EXPECT_LT(relative_error(ph.mean_jobs_i, exponential.mean_jobs_i),
                  1e-12);
        EXPECT_LT(relative_error(ph.mean_jobs_e, exponential.mean_jobs_e),
                  1e-12);
        EXPECT_LT(relative_error(ph.mean_response_time,
                                 exponential.mean_response_time),
                  1e-12);
      }
    }
  }
}

TEST(ExactCtmc, PhaseTypeIfChainFoldsAlongJAndKeepsTheInelasticMarginal) {
  // IF with erlang:3 sizes at k=4, rho 0.6, imax = jmax = 40 (23,575
  // states): most states of an i level are down-targets, so the fold along
  // i estimates ~6.4e9 flops, while an elastic completion lands on few
  // states of a j level (~2.0e8 along j). IF serves inelastic jobs
  // regardless of N_E, so E[N_I] is the same at jmax = 1, a 1,150-state
  // chain; both solves are direct.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  const PhaseType erl3 = PhaseType::erlang(3, 3.0 * p.mu_i);
  ExactCtmcOptions square;
  square.imax = square.jmax = 40;
  const std::uint64_t by_j_before = counter_total("exact.method.block.axis.j");
  const ExactCtmcResult by_j =
      solve_exact_ctmc_ph(p, InelasticFirst{}, erl3, square);
  EXPECT_EQ(counter_total("exact.method.block.axis.j") - by_j_before, 1u);
  EXPECT_EQ(by_j.num_states, 23575u);
  EXPECT_EQ(by_j.solve_info.method, "block");
  ExactCtmcOptions one_column = square;
  one_column.jmax = 1;
  const ExactCtmcResult narrow =
      solve_exact_ctmc_ph(p, InelasticFirst{}, erl3, one_column);
  EXPECT_EQ(narrow.num_states, 1150u);
  EXPECT_EQ(narrow.solve_info.method, "block");
  EXPECT_LT(relative_error(by_j.mean_jobs_i, narrow.mean_jobs_i), 1e-12);
}

TEST(ExactCtmc, AutoBlockLevelsIfAlongElasticAxisAndEfAlongInelastic) {
  // Under IF an elastic completion leaves at most k states of an N_E
  // level, so the fold along N_E densifies k columns per level instead of
  // all of them; EF serves inelastic jobs only at j == 0, so N_I is its
  // cheap axis.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.9);
  ExactCtmcOptions options;
  options.imax = options.jmax = 40;  // 1681 states: auto skips dense GTH
  struct Case {
    const AllocationPolicy& policy;
    char axis;
  };
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  for (const Case& c : {Case{inelastic_first, 'j'}, Case{elastic_first, 'i'}}) {
    SCOPED_TRACE(c.policy.name());
    char ordering = '?';
    const ExactCtmcResult automatic =
        solve_auto(p, c.policy, options, &ordering);
    EXPECT_EQ(automatic.solve_info.method, "block");
    EXPECT_EQ(ordering, c.axis);
    const SparseCtmc chain =
        policy_chain(p, c.policy, options.imax, options.jmax);
    EXPECT_NEAR(automatic.mean_response_time,
                grid_means(p,
                           gth_stationary(chain.rate_matrix(),
                                          chain.exit_rates()),
                           options.jmax)
                    .mean_response_time,
                1e-10);
  }
}

TEST(ExactCtmc, NonSquareChainTakesTheAxisWithTheLowerFlopEstimate) {
  // 61 N_I levels of 21 states against 21 N_E levels of 61: the longer
  // axis is N_I, but under IF it folds every column, so N_E must win.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const InelasticFirst policy;
  const long imax = 60, jmax = 20;
  const SparseCtmc chain = policy_chain(p, policy, imax, jmax);
  const auto by_i = grid_levels(imax + 1, jmax + 1, false);
  const auto by_j = grid_levels(imax + 1, jmax + 1, true);
  const double flops_i = block_solver_flop_estimate(chain.rate_matrix(), by_i);
  const double flops_j = block_solver_flop_estimate(chain.rate_matrix(), by_j);
  EXPECT_LT(flops_j, flops_i);

  ExactCtmcOptions options;
  options.imax = imax;
  options.jmax = jmax;
  char ordering = '?';
  const ExactCtmcResult automatic = solve_auto(p, policy, options, &ordering);
  EXPECT_EQ(automatic.solve_info.method, "block");
  EXPECT_EQ(ordering, 'j');
  EXPECT_NEAR(automatic.mean_response_time,
              grid_means(p,
                         gth_stationary(chain.rate_matrix(),
                                        chain.exit_rates()),
                         jmax)
                  .mean_response_time,
              1e-10);
}

TEST(ExactCtmc, NestedDissectionMatchesGthOnPolicyChains) {
  // The §4 family on a square and a non-square grid: every state holding
  // mass agrees with dense GTH to 1e-12 relative.
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  const FairShare fair_share;
  const InelasticCap cap2(2);
  const IdlingPolicy idle1(make_inelastic_first(), 1.0);
  const AllocationPolicy* policies[] = {&fair_share, &cap2, &inelastic_first,
                                        &elastic_first, &idle1};
  const std::pair<long, long> grids[] = {{40, 40}, {60, 20}};
  for (const auto& [imax, jmax] : grids) {
    for (const AllocationPolicy* policy : policies) {
      SCOPED_TRACE(::testing::Message() << policy->name() << " " << imax
                                        << " x " << jmax);
      const SparseCtmc chain = policy_chain(p, *policy, imax, jmax);
      const Vector nd = nested_dissection_stationary(
          chain.rate_matrix(), chain.exit_rates(),
          static_cast<std::size_t>(imax + 1),
          static_cast<std::size_t>(jmax + 1));
      expect_relative_match(
          nd, gth_stationary(chain.rate_matrix(), chain.exit_rates()),
          1e-12);
    }
  }
}

TEST(ExactCtmc, NestedDissectionMatchesBlockOnIfAndEfAt39204States) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  const long imax = 197, jmax = 197;  // 198 x 198 = 39,204 states
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  struct Case {
    const AllocationPolicy& policy;
    bool by_j;  // the axis auto levels along
  };
  for (const Case& c :
       {Case{inelastic_first, true}, Case{elastic_first, false}}) {
    SCOPED_TRACE(c.policy.name());
    const SparseCtmc chain = policy_chain(p, c.policy, imax, jmax);
    const Vector block = block_tridiagonal_stationary(
        chain.rate_matrix(), chain.exit_rates(),
        grid_levels(imax + 1, jmax + 1, c.by_j), nullptr);
    const Vector nd = nested_dissection_stationary(
        chain.rate_matrix(), chain.exit_rates(), imax + 1, jmax + 1);
    expect_relative_match(nd, block, 1e-12);
  }
}

TEST(ExactCtmc, AutoRoutesEachPolicyToItsCheapestOrdering) {
  // FairShare and Cap2 fill the fold along either axis, so nested
  // dissection wins; IF and EF keep their cheap axis.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.9);
  ExactCtmcOptions options;
  options.imax = options.jmax = 80;  // 6,561 states
  const FairShare fair_share;
  const InelasticCap cap2(2);
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  struct Case {
    const AllocationPolicy& policy;
    char ordering;
  };
  const Case cases[] = {{fair_share, 'n'}, {cap2, 'n'}, {inelastic_first, 'j'},
                        {elastic_first, 'i'}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.policy.name());
    char ordering = '?';
    const ExactCtmcResult automatic =
        solve_auto(p, c.policy, options, &ordering);
    EXPECT_EQ(automatic.solve_info.method, "block");
    EXPECT_EQ(ordering, c.ordering);
  }
}

TEST(ExactCtmc, NestedDissectionSurvivesNegligibleMassOnThePinnedState) {
  // Back-substitution pins the root separator's last state, (60, 120)
  // here, whose mass is ~rho^180 of the empty state's at rho 0.02: the
  // unnormalized values would overflow without rescaling. The truncation
  // is far past the mass, so a 41 x 41 GTH solve gives the same E[T].
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.02);
  ExactCtmcOptions options;
  options.imax = options.jmax = 120;
  char ordering = '?';
  const ExactCtmcResult nd = solve_auto(p, FairShare{}, options, &ordering);
  EXPECT_EQ(ordering, 'n');
  const SparseCtmc chain = policy_chain(p, FairShare{}, 40, 40);
  const double dense =
      grid_means(p, gth_stationary(chain.rate_matrix(), chain.exit_rates()),
                 40)
          .mean_response_time;
  EXPECT_NEAR(nd.mean_response_time, dense, 1e-12 * dense);
}

/// Never serves inelastic jobs, so N_I only grows: the row i == imax is
/// closed and every other state is transient.
class NoInelasticService final : public AllocationPolicy {
 public:
  Allocation allocate(const State& state,
                      const SystemParams& params) const override {
    return {0.0, state.j > 0 ? static_cast<double>(params.k) : 0.0};
  }
  std::string name() const override { return "NoInelasticService"; }
};

TEST(ExactCtmc, ReducibleChainsSolveTheirClosedClass) {
  // Levels along N_I are the cheapest ordering, but no level has a
  // down-transition, so the fold throws; nested dissection, run directly,
  // would hit a zero pivot too. Only the row i == imax is closed: the solve
  // puts all mass there and solves the row's 31 states by dense GTH.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  ExactCtmcOptions options;
  options.imax = options.jmax = 30;  // 961 states
  const NoInelasticService policy;
  const std::uint64_t closed_before =
      counter_total("exact.method.closed_class");
  char ordering = '?';
  const ExactCtmcResult automatic = solve_auto(p, policy, options, &ordering);
  EXPECT_EQ(automatic.solve_info.method, "gth");
  EXPECT_EQ(ordering, '-');
  EXPECT_EQ(counter_total("exact.method.closed_class") - closed_before, 1u);
  // All mass sits on the row i == 30, up to the rounding of its sum.
  EXPECT_DOUBLE_EQ(automatic.mean_jobs_i, 30.0);
  EXPECT_EQ(automatic.boundary_mass, 1.0);
  EXPECT_LT(automatic.solve_info.residual, 1e-12);
  const SparseCtmc chain = policy_chain(p, policy, 30, 30);
  EXPECT_THROW(block_tridiagonal_stationary(chain.rate_matrix(),
                                            chain.exit_rates(),
                                            grid_levels(31, 31, false)),
               Error);
  EXPECT_THROW(nested_dissection_stationary(chain.rate_matrix(),
                                            chain.exit_rates(), 31, 31),
               Error);

  // Idling all k servers serves nobody: every arrival is absorbed at the
  // corner (imax, jmax), the one closed class. At 20 levels (441 states)
  // dense GTH hits the state with no path down, at 40 the fold does; both
  // solves end on the corner.
  const PolicyPtr idle_all = make_idling(make_inelastic_first(), 4.0);
  for (const long levels : {20L, 40L}) {
    SCOPED_TRACE(levels);
    ExactCtmcOptions idle_options;
    idle_options.imax = idle_options.jmax = levels;
    const std::uint64_t before = counter_total("exact.method.closed_class");
    const ExactCtmcResult idle = solve_exact_ctmc(p, *idle_all, idle_options);
    EXPECT_EQ(idle.solve_info.method, "gth");
    EXPECT_EQ(idle.mean_response_time, static_cast<double>(levels));
    EXPECT_EQ(idle.boundary_mass, 1.0);
    EXPECT_EQ(counter_total("exact.method.closed_class") - before, 1u);
  }
  const SparseCtmc corner = policy_chain(p, *idle_all, 20, 20);
  EXPECT_THROW(gth_stationary(corner.rate_matrix(), corner.exit_rates()),
               Error);

  // Elastic-first idling one server never serves a lone inelastic job, so
  // once N_I reaches 1 it never returns to 0: the closed class is the rows
  // i >= 1, states 31..960, over the dense GTH limit. The block method
  // solves the class; dense GTH on the same rows agrees.
  const PolicyPtr ef_idle = make_idling(make_elastic_first(), 1.0);
  const std::uint64_t ef_before = counter_total("exact.method.closed_class");
  const ExactCtmcResult rows = solve_auto(p, *ef_idle, options, &ordering);
  EXPECT_EQ(rows.solve_info.method, "block");
  EXPECT_EQ(ordering, 'i');
  EXPECT_EQ(counter_total("exact.method.closed_class") - ef_before, 1u);
  EXPECT_LT(rows.solve_info.residual, 1e-12);
  const SparseCtmc ef_chain = policy_chain(p, *ef_idle, 30, 30);
  const std::vector<std::vector<std::size_t>> classes =
      closed_classes(ef_chain.rate_matrix());
  ASSERT_EQ(classes.size(), 1u);
  ASSERT_EQ(classes[0].size(), 930u);
  EXPECT_EQ(classes[0].front(), 31u);
  const CsrMatrix& full = ef_chain.rate_matrix();
  CsrMatrix class_rates;
  Vector class_exit(930);
  class_rates.begin_rows(930, 930);
  for (std::size_t r = 0; r < 930; ++r) {
    for (std::size_t k = 0; k < full.row_nnz(r + 31); ++k) {
      class_rates.push(full.row_cols(r + 31)[k] - 31,
                       full.row_values(r + 31)[k]);
    }
    class_rates.next_row();
    class_exit[r] = ef_chain.exit_rates()[r + 31];
  }
  const Vector dense = gth_stationary(class_rates, class_exit);
  double jobs_i = 0.0;
  double jobs_e = 0.0;
  for (std::size_t r = 0; r < 930; ++r) {
    jobs_i += static_cast<double>(r / 31 + 1) * dense[r];
    jobs_e += static_cast<double>(r % 31) * dense[r];
  }
  EXPECT_NEAR(rows.mean_jobs_i, jobs_i, 1e-12 * jobs_i);
  EXPECT_NEAR(rows.mean_jobs_e, jobs_e, 1e-12 * jobs_e);
}

TEST(ExactCtmc, SeveralClosedClassesThrow) {
  // Without elastic arrivals and with every server idle, j never changes
  // and i only grows: each (10, j) is its own closed class, 11 in all, so
  // the stationary law is not unique. The solve must say so, not return
  // one of the laws.
  SystemParams p;
  p.k = 4;
  p.lambda_i = 2.0;
  p.lambda_e = 0.0;
  const PolicyPtr idle_all = make_idling(make_inelastic_first(), 4.0);
  ExactCtmcOptions options;
  options.imax = options.jmax = 10;  // 121 states
  try {
    (void)solve_exact_ctmc(p, *idle_all, options);
    ADD_FAILURE() << "expected esched::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("11 closed classes"), std::string::npos) << what;
    EXPECT_NE(what.find("not unique"), std::string::npos) << what;
  }
}

TEST(ExactCtmc, BothChainBuildersRejectTheSameInputsByName) {
  // An unstable load, a zero truncation level and a system without
  // arrivals are refused before any chain is built, with the same message
  // from the exponential and the phase-type entry point.
  const InelasticFirst policy;
  const PhaseType erlang = PhaseType::erlang(2, 2.0);
  const SystemParams stable = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  SystemParams overloaded = stable;
  overloaded.lambda_i *= 2.0;
  overloaded.lambda_e *= 2.0;
  SystemParams idle = stable;
  idle.lambda_i = idle.lambda_e = 0.0;
  ExactCtmcOptions options;
  options.imax = options.jmax = 10;
  ExactCtmcOptions no_levels = options;
  no_levels.imax = 0;
  struct Case {
    const SystemParams& params;
    const ExactCtmcOptions& options;
    const char* message;
  };
  for (const Case& c : {Case{overloaded, options, "requires rho < 1"},
                        Case{stable, no_levels, "truncation levels must be"},
                        Case{idle, options, "requires some arrivals"}}) {
    SCOPED_TRACE(c.message);
    std::string exponential_what;
    std::string ph_what;
    try {
      (void)solve_exact_ctmc(c.params, policy, c.options);
      ADD_FAILURE() << "solve_exact_ctmc: expected esched::Error";
    } catch (const Error& e) {
      exponential_what = e.what();
    }
    try {
      (void)solve_exact_ctmc_ph(c.params, policy, erlang, c.options);
      ADD_FAILURE() << "solve_exact_ctmc_ph: expected esched::Error";
    } catch (const Error& e) {
      ph_what = e.what();
    }
    EXPECT_NE(exponential_what.find(c.message), std::string::npos)
        << exponential_what;
    EXPECT_EQ(ph_what, exponential_what);
  }
}

TEST(ExactCtmc, EveryBlockSolveBumpsExactlyOneOrderingCounter) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  ExactCtmcOptions options;
  options.imax = options.jmax = 40;
  const char* names[] = {"exact.method.block.solves",
                         "exact.method.block.axis.i",
                         "exact.method.block.axis.j",
                         "exact.method.block.nd"};
  std::uint64_t before[4];
  for (int c = 0; c < 4; ++c) before[c] = counter_total(names[c]);
  (void)solve_exact_ctmc(p, InelasticFirst{}, options);  // axis j
  (void)solve_exact_ctmc(p, ElasticFirst{}, options);    // axis i
  (void)solve_exact_ctmc(p, FairShare{}, options);       // nested dissection
  (void)solve_exact_ctmc(p, NoInelasticService{}, options);  // closed class
  ExactCtmcOptions ph = options;
  ph.imax = ph.jmax = 12;  // 1,915 states
  (void)solve_exact_ctmc_ph(p, ElasticFirst{},
                            PhaseType::erlang(2, 2.0 * p.mu_i), ph);  // axis i
  std::uint64_t delta[4];
  for (int c = 0; c < 4; ++c) delta[c] = counter_total(names[c]) - before[c];
  EXPECT_EQ(delta[0], 4u);
  EXPECT_EQ(delta[1], 2u);
  EXPECT_EQ(delta[2], 1u);
  EXPECT_EQ(delta[3], 1u);
  EXPECT_EQ(delta[0], delta[1] + delta[2] + delta[3]);
}

TEST(ExactCtmc, BitwisePinned) {
  // The CSV goldens print 12 significant digits, so this is what pins the
  // bits of the exponential exact chain: its generator (rates and exit-rate
  // sums in the same order), the routed solver and the means read off pi.
  // The cases reach dense GTH (15 levels), both level axes and nested
  // dissection (40 and 90 levels), and, last, a reducible chain's closed
  // class. The expected values were recorded before the sweep stopped
  // batching exact points by chain topology; the last case was re-pinned
  // when SOR was deleted (it read the same values through SOR). Never
  // regenerate them to make a change pass.
  struct Pin {
    double mean_response_time, mean_jobs_i, mean_jobs_e, boundary_mass,
        residual;
    const char* method;
    char ordering;  // as solve_auto reports it
  };
  // One row per case, in the loop order below: settings; 15, 40, 90
  // levels; IF, EF, FairShare, Cap2, IF+idle1. Then IF+idle4 at 40 levels.
  static const Pin expected[] = {
      {0x1.2c4b9f50d5a86p+0, 0x1.111110de81b49p-1, 0x1.47862dc3299c4p-1,
       0x1.4b5ac7679963cp-18, 0x1.2p-54, "gth", '-'},
      {0x1.3c6b00f590adep+0, 0x1.ce2b576076b0ep-1, 0x1.555555155555cp-2,
       0x1.dd79ec93574d7p-18, 0x1p-53, "gth", '-'},
      {0x1.2eee3f36e87bep+0, 0x1.4e37cb8743e5ep-1, 0x1.0fa4b2e68d11ep-1,
       0x1.d74e507d7d95bp-24, 0x1.8p-55, "gth", '-'},
      {0x1.2c4b9f50d5a86p+0, 0x1.111110de81b49p-1, 0x1.47862dc3299c4p-1,
       0x1.4b5ac7679963cp-18, 0x1.2p-54, "gth", '-'},
      {0x1.19d4b57284f2ap+3, 0x1.0c00442043776p+0, 0x1.f0a959dcf9076p+2,
       0x1.d20c5bc7a054dp-4, 0x1.4p-56, "gth", '-'},
      {0x1.2c4e6eca13cf8p+0, 0x1.111111111111bp-1, 0x1.478bcc83168d6p-1,
       0x1.9d7f782a2ab1bp-44, 0x1.8p-54, "block", 'j'},
      {0x1.3c6ef372fb86dp+0, 0x1.ce333c3b4c62dp-1, 0x1.555555555555ap-2,
       0x1.298e2bcb624b1p-43, 0x1.2p-52, "block", 'i'},
      {0x1.2eee52af0cdap+0, 0x1.4e37df23c016cp-1, 0x1.0fa4c63a599d4p-1,
       0x1.326c5004c47dep-63, 0x1p-54, "block", 'n'},
      {0x1.2c4e6eca13cf8p+0, 0x1.111111111111bp-1, 0x1.478bcc83168d6p-1,
       0x1.9d7f782a2ab1bp-44, 0x1.8p-54, "block", 'j'},
      {0x1.5404da2c98a32p+4, 0x1.04fae1f850e57p+0, 0x1.43b52c0d1394dp+4,
       0x1.80bad9e078305p-5, 0x1.7p-57, "block", 'j'},
      {0x1.2c4e6eca15f3ep+0, 0x1.1111111111117p-1, 0x1.478bcc831ad64p-1,
       0x1.15a54573c6a26p-94, 0x1.8p-54, "block", 'j'},
      {0x1.3c6ef372fe948p+0, 0x1.ce333c3b527e4p-1, 0x1.5555555555558p-2,
       0x1.8f4d36aa74ff5p-94, 0x1p-52, "block", 'i'},
      {0x1.2eee52af0cda7p+0, 0x1.4e37df23c0175p-1, 0x1.0fa4c63a599d9p-1,
       0x1.020163af2f12cp-142, 0x1p-55, "block", 'n'},
      {0x1.2c4e6eca15f3ep+0, 0x1.1111111111117p-1, 0x1.478bcc831ad64p-1,
       0x1.15a54573c6a26p-94, 0x1.8p-54, "block", 'j'},
      {0x1.71d1b60c0c41p+5, 0x1.024a6500dbf2cp+0, 0x1.69bf62e405617p+5,
       0x1.61eba05936b73p-6, 0x1.ap-58, "block", 'j'},
      {0x1.6ee99cd9216fep-1, 0x1.e064226d3ea72p-1, 0x1.bcb535b4057d2p+0,
       0x1.23b1ab37e3d7bp-11, 0x1.cp-53, "gth", '-'},
      {0x1.01a8a75e70889p+0, 0x1.70f934d5b0228p+1, 0x1.bff563aea9d7dp-1,
       0x1.2b94dd8530b4ap-7, 0x1p-53, "gth", '-'},
      {0x1.7f77e211ab3bbp-1, 0x1.2832e6ed7ff0fp+0, 0x1.a39bd0226a5c6p+0,
       0x1.0e18d69d989dap-12, 0x1.4p-52, "gth", '-'},
      {0x1.7b3f1e35fd3b4p-1, 0x1.17b9444e89804p+0, 0x1.ac3405274f328p+0,
       0x1.fbb7fb1377836p-12, 0x1.4p-53, "gth", '-'},
      {0x1.dbbdfe521b01cp+0, 0x1.0c5397d46c696p+0, 0x1.78f1c324536fcp+2,
       0x1.35181c0619e6dp-5, 0x1.cp-54, "gth", '-'},
      {0x1.70dc24ae79a7ap-1, 0x1.e06422a4f049bp-1, 0x1.c057ccc0048b6p+0,
       0x1.9b27b36ff2c6p-27, 0x1.4p-52, "block", 'j'},
      {0x1.0bc5a6310c383p+0, 0x1.83d7585b8ee13p+1, 0x1.bffffffffd964p-1,
       0x1.346f51169786fp-15, 0x1.8p-53, "block", 'i'},
      {0x1.8096617b3c391p-1, 0x1.28a954db9227fp+0, 0x1.a53c2de855b9fp+0,
       0x1.1f74b763fd1e2p-30, 0x1p-53, "block", 'n'},
      {0x1.7cf7efa82d55ep-1, 0x1.17c08ead8da77p+0, 0x1.af639714e91afp+0,
       0x1.5c34ade93aed7p-27, 0x1p-53, "block", 'n'},
      {0x1.81865ca8b4d04p+1, 0x1.077e9b6ed5ec5p+0, 0x1.46e2e973df15dp+3,
       0x1.dc0165799ced7p-9, 0x1.1p-52, "block", 'j'},
      {0x1.70dc2b9bf00aep-1, 0x1.e06422a4f049bp-1, 0x1.c057d9ae7b228p+0,
       0x1.9937e086e19bap-58, 0x1.8p-53, "block", 'j'},
      {0x1.0bdd15c10b54p+0, 0x1.8403178a7b877p+1, 0x1.c00000000011p-1,
       0x1.3db690571034ep-30, 0x1.8p-52, "block", 'i'},
      {0x1.80966241a38bbp-1, 0x1.28a9553017c59p+0, 0x1.a53c2f062a948p+0,
       0x1.47e328894b9cfp-66, 0x1.4p-53, "block", 'n'},
      {0x1.7cf7f5921dc17p-1, 0x1.17c08eb45a2c6p+0, 0x1.af63a21821a3p+0,
       0x1.59dfa65ec4d81p-58, 0x1p-53, "block", 'n'},
      {0x1.afc5b49ccfda4p+1, 0x1.06fce285e1ep+0, 0x1.721d2e63c17e9p+3,
       0x1.d323a49a47752p-15, 0x1p-52, "block", 'j'},
      {0x1.aeb09fa55a14ep+1, 0x1.6923691553a11p+1, 0x1.50423e3bc2488p+2,
       0x1.523258178a26ap-4, 0x1.cp-55, "gth", '-'},
      {0x1.5ed3043631165p+1, 0x1.898f81af8e237p+2, 0x1.b6db6917990efp-2,
       0x1.f3d009514200fp-6, 0x1p-53, "gth", '-'},
      {0x1.a9131f5b65d2ep+1, 0x1.559ef1e045452p+2, 0x1.50f0011ad03cap+1,
       0x1.30ca234a4e17ap-6, 0x1.8p-54, "gth", '-'},
      {0x1.74b9566d610bfp+1, 0x1.6a0db0208800dp+2, 0x1.54dc77f14b693p+0,
       0x1.a7a7e9c94c2bbp-6, 0x1p-53, "gth", '-'},
      {0x1.ba6a8a9d63c41p+2, 0x1.1db5414426b0fp+2, 0x1.840b9f4dfdf93p+3,
       0x1.07d6e9e355f88p-1, 0x1.8p-55, "gth", '-'},
      {0x1.4364b6d8f5d6p+2, 0x1.6a4ff1cd06fc3p+1, 0x1.297e78911874fp+3,
       0x1.d0abbc7e9232cp-7, 0x1.34p-53, "block", 'j'},
      {0x1.e1381608b194p+1, 0x1.130464fde6e3dp+3, 0x1.b6db6db6db6c4p-2,
       0x1.1eba863eb7376p-10, 0x1.8p-54, "block", 'i'},
      {0x1.10cf5a76faee6p+2, 0x1.ba3cb406d935fp+2, 0x1.a9037d609ba5fp+1,
       0x1.70225649b6526p-12, 0x1.ep-55, "block", 'n'},
      {0x1.ec100302292adp+1, 0x1.f7b06f34fde98p+2, 0x1.5b24b803345a6p+0,
       0x1.ed026bd066673p-11, 0x1.8p-54, "block", 'n'},
      {0x1.0fd8e3528348dp+4, 0x1.3f0bb3a2d7ff4p+2, 0x1.1e5600bb75bddp+5,
       0x1.00d8afa5c0905p-1, 0x1.97fp-54, "block", 'j'},
      {0x1.77834c91fae1fp+2, 0x1.6a4ff2645bd85p+1, 0x1.6809927c7c7f7p+3,
       0x1.46ae149a110adp-11, 0x1.9p-53, "block", 'j'},
      {0x1.ef16a3deaf238p+1, 0x1.1b56ba17e56d1p+3, 0x1.b6db6db6db6d3p-2,
       0x1.03027a748e53p-19, 0x1.4p-54, "block", 'i'},
      {0x1.14054f1e56981p+2, 0x1.bf9fdfdf5471bp+2, 0x1.ada688d2f6c33p+1,
       0x1.52145e81c4d2ap-23, 0x1.ap-55, "block", 'n'},
      {0x1.f8585c503e30dp+1, 0x1.0330389762e49p+3, 0x1.5b598ff94692ap+0,
       0x1.bdae7226706e7p-20, 0x1.6p-54, "block", 'n'},
      {0x1.2e05365ef67fbp+5, 0x1.3f47ff221a543p+2, 0x1.567827b306273p+6,
       0x1.0000b872da5edp-1, 0x1.98905p-54, "block", 'j'},
      {0x1.4p+5, 0x1.4p+5, 0x1.4p+5,
       0x1p+0, 0x0p+0, "gth", '-'},
  };
  struct Setting {
    int k;
    double mu_i, mu_e, rho;
  };
  const Setting settings[] = {
      {2, 1.0, 1.0, 0.5}, {4, 2.0, 1.0, 0.7}, {4, 0.5, 1.0, 0.9}};
  const PolicyPtr policies[] = {
      make_inelastic_first(), make_elastic_first(), make_fair_share(),
      make_inelastic_cap(2), make_idling(make_inelastic_first(), 1.0)};
  std::vector<std::pair<SystemParams, ExactCtmcOptions>> inputs;
  std::vector<const AllocationPolicy*> input_policies;
  for (const Setting& s : settings) {
    for (const long levels : {15L, 40L, 90L}) {
      for (const PolicyPtr& policy : policies) {
        ExactCtmcOptions options;
        options.imax = options.jmax = levels;
        inputs.emplace_back(
            SystemParams::from_load(s.k, s.mu_i, s.mu_e, s.rho), options);
        input_policies.push_back(policy.get());
      }
    }
  }
  const PolicyPtr idle4 = make_idling(make_inelastic_first(), 4.0);
  ExactCtmcOptions forty;
  forty.imax = forty.jmax = 40;
  inputs.emplace_back(SystemParams::from_load(4, 1.0, 1.0, 0.5), forty);
  input_policies.push_back(idle4.get());
  ASSERT_EQ(inputs.size(), std::size(expected));
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    const auto& [params, options] = inputs[c];
    char ordering = '?';
    const ExactCtmcResult r =
        solve_auto(params, *input_policies[c], options, &ordering);
    const Pin& e = expected[c];
    EXPECT_EQ(r.mean_response_time, e.mean_response_time) << "case " << c;
    EXPECT_EQ(r.mean_jobs_i, e.mean_jobs_i) << "case " << c;
    EXPECT_EQ(r.mean_jobs_e, e.mean_jobs_e) << "case " << c;
    EXPECT_EQ(r.boundary_mass, e.boundary_mass) << "case " << c;
    EXPECT_EQ(r.solve_info.residual, e.residual) << "case " << c;
    EXPECT_EQ(r.solve_info.method, e.method) << "case " << c;
    EXPECT_EQ(ordering, e.ordering) << "case " << c;
  }
}

TEST(ExactCtmcPh, BitwisePinned) {
  // The phase-type chain's counterpart of ExactCtmc.BitwisePinned: the
  // bits of solve_exact_ctmc_ph for erlang:2, erlang:3, a hyperexponential
  // and a Coxian-2 (all unit mean) at k = 1, 2, 4 under IF and EF, 16
  // levels each: EF chains fold along i and IF chains along j. Then the
  // k = 1 erlang:4 IF chain and a wider IF erlang:3 chain, both folding
  // along j. Recorded before the fold stopped holding its censored level
  // blocks as dense matrices, when IF chains folded along i and the last
  // one took SOR. The IF cases (0, 2, ..., 24) and case 25 were re-pinned
  // when SOR was deleted and IF chains moved to the fold along j; each
  // mean stayed within 1e-12 relative of its old pin (1e-9 for case 25,
  // SOR's tolerance). Never regenerate them to make a change pass.
  struct Pin {
    double mean_response_time, mean_jobs_i, mean_jobs_e, boundary_mass,
        residual;
    std::size_t states;
    const char* method;
  };
  static const Pin expected[] = {
      {0x1.83baf7191409ep+1, 0x1.f72371da594ap-2, 0x1.a109b0ac85bb4p+0,
       0x1.b83a9735368e2p-12, 0x1.2p-54, 561, "block"},
      {0x1.8bcb3be9ec186p+1, 0x1.a043ee9a53c65p+0, 0x1.13b130f3ed844p-1,
       0x1.21617438cf3d6p-11, 0x1.cp-55, 817, "block"},
      {0x1.b26c80d27728bp+0, 0x1.8d37b72ab7483p-1, 0x1.9995a5914b2e7p+0,
       0x1.a6a9ea312e99ap-12, 0x1.3p-53, 816, "block"},
      {0x1.cf52732961e39p+0, 0x1.fece08bff8b01p+0, 0x1.13b130f3ed835p-1,
       0x1.65820331c2203p-11, 0x1.2p-53, 1552, "block"},
      {0x1.0fbecb4e5e82bp+0, 0x1.6d1c7a0c18d0bp+0, 0x1.8bc68c02896a2p+0,
       0x1.832b8233ba708p-12, 0x1.fp-53, 1275, "block"},
      {0x1.37389c6fc48fdp+0, 0x1.6ec95b92b167bp+1, 0x1.13b130f3ed867p-1,
       0x1.1f2a03cb1a945p-10, 0x1.cp-53, 3515, "block"},
      {0x1.77b739d1a6472p+1, 0x1.e70e70d9293e9p-2, 0x1.943ce7ef3813ep+0,
       0x1.4540c720e8e4p-12, 0x1.8p-54, 833, "block"},
      {0x1.8292777897742p+1, 0x1.935adb9543acfp+0, 0x1.13b130f3ed84ep-1,
       0x1.e58bfe5a15917p-12, 0x1.cp-53, 1089, "block"},
      {0x1.a8fd95b8ac8cdp+0, 0x1.897ed22f47b3ap-1, 0x1.8e3d35514db81p+0,
       0x1.3ad085851a0adp-12, 0x1.1p-53, 1598, "block"},
      {0x1.c9990d7a975d8p+0, 0x1.f6ca7a64dd278p+0, 0x1.13b130f3ed839p-1,
       0x1.34a137ce6e73cp-11, 0x1.cp-54, 2574, "block"},
      {0x1.0c6e627e2601p+0, 0x1.6c96cbd0f6bc5p+0, 0x1.8304ae5d0d468p+0,
       0x1.25de3de0f0fabp-12, 0x1.cp-53, 3655, "block"},
      {0x1.360d88139ddd1p+0, 0x1.6d26a57814d4dp+1, 0x1.13b130f3ed82dp-1,
       0x1.038e4e4202cedp-10, 0x1.8p-52, 8055, "block"},
      {0x1.d2c0288070931p+1, 0x1.33d84f0898657p-1, 0x1.f3874462b7ce4p+0,
       0x1.2f8a3bf9934a1p-9, 0x1p-54, 561, "block"},
      {0x1.c8f54a9147fb6p+1, 0x1.f5e536516e045p+0, 0x1.13b130f3ed84p-1,
       0x1.0231dc5697781p-9, 0x1.3p-55, 817, "block"},
      {0x1.ed12596a4e7p+0, 0x1.a506a96a9f82dp-1, 0x1.dfc98edf8474fp+0,
       0x1.105a921136064p-9, 0x1p-53, 816, "block"},
      {0x1.f35e62e1b5277p+0, 0x1.18a2929436a13p+1, 0x1.13b130f3ed832p-1,
       0x1.f1ce61478b735p-10, 0x1.4p-54, 1552, "block"},
      {0x1.22a156113fc19p+0, 0x1.702a17134cc76p+0, 0x1.bd99a6b698f03p+0,
       0x1.a4e9fb73bea05p-10, 0x1p-54, 1275, "block"},
      {0x1.3e4d65304527ap+0, 0x1.78b3416cff0a4p+1, 0x1.13b130f3ed819p-1,
       0x1.1574954730d9dp-9, 0x1.a68p-53, 3515, "block"},
      {0x1.a6fddb76a07bfp+1, 0x1.13b130f3ed83ap-1, 0x1.c6579ac5b6b86p+0,
       0x1.e8ad617aed4fap-11, 0x1.2p-55, 561, "block"},
      {0x1.a6fddb76a07c2p+1, 0x1.c6579ac5b6b8ap+0, 0x1.13b130f3ed83bp-1,
       0x1.e8ad617aed4fbp-11, 0x1.cp-55, 817, "block"},
      {0x1.cdb16586c8e77p+0, 0x1.986ecd7e015d3p-1, 0x1.ba275a974bc88p+0,
       0x1.c9b4bd6578323p-11, 0x1.4p-55, 816, "block"},
      {0x1.e032b2d742e4ep+0, 0x1.0b3730f34d0c3p+1, 0x1.13b130f3ed833p-1,
       0x1.15fcd2c059dc5p-10, 0x1p-53, 1552, "block"},
      {0x1.191466292c67p+0, 0x1.6eb65db539a01p+0, 0x1.a44f8d2475e6bp+0,
       0x1.8bbf0ae513291p-11, 0x1.5p-53, 1275, "block"},
      {0x1.3abd8ddcc8a69p+0, 0x1.73b6ad91b721ep+1, 0x1.13b130f3ed83ap-1,
       0x1.8777c49dc8572p-10, 0x1p-53, 3515, "block"},
      {0x1.71ab32eb72839p+1, 0x1.df03f03a6eaf5p-2, 0x1.8dc84b3b04a5ep+0,
       0x1.15e503bec76eep-12, 0x1.4p-54, 1105, "block"},
      {0x1.c5b888e454852p-1, 0x1.364508d6bb821p+0, 0x1.d46403a9ba3b6p-1,
       0x1.6137ee009afbep-33, 0x1.68p-53, 8815, "block"},
  };
  struct Case {
    SystemParams params;
    const AllocationPolicy* policy;
    PhaseType size_dist;
    ExactCtmcOptions options;
  };
  const PhaseType dists[] = {
      PhaseType::erlang(2, 2.0), PhaseType::erlang(3, 3.0),
      PhaseType::hyperexponential({0.25, 0.75}, {0.5, 1.5}),
      PhaseType::coxian2(2.0, 1.0, 0.5)};
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  const AllocationPolicy* policies[] = {&inelastic_first, &elastic_first};
  ExactCtmcOptions sixteen;
  sixteen.imax = sixteen.jmax = 16;
  std::vector<Case> cases;
  for (const PhaseType& dist : dists) {
    for (const int k : {1, 2, 4}) {
      for (const AllocationPolicy* policy : policies) {
        cases.push_back(
            {SystemParams::from_load(k, 1.0, 1.0, 0.7), policy, dist, sixteen});
      }
    }
  }
  cases.push_back({SystemParams::from_load(1, 1.0, 1.0, 0.7), &inelastic_first,
                   PhaseType::erlang(4, 4.0), sixteen});
  ExactCtmcOptions wide;
  wide.imax = 16;
  wide.jmax = 40;
  cases.push_back({SystemParams::from_load(4, 1.0, 1.0, 0.6), &inelastic_first,
                   PhaseType::erlang(3, 3.0), wide});
  ASSERT_EQ(cases.size(), std::size(expected));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& in = cases[c];
    const ExactCtmcResult r =
        solve_exact_ctmc_ph(in.params, *in.policy, in.size_dist, in.options);
    const Pin& e = expected[c];
    EXPECT_EQ(r.mean_response_time, e.mean_response_time) << "case " << c;
    EXPECT_EQ(r.mean_jobs_i, e.mean_jobs_i) << "case " << c;
    EXPECT_EQ(r.mean_jobs_e, e.mean_jobs_e) << "case " << c;
    EXPECT_EQ(r.boundary_mass, e.boundary_mass) << "case " << c;
    EXPECT_EQ(r.solve_info.residual, e.residual) << "case " << c;
    EXPECT_EQ(r.num_states, e.states) << "case " << c;
    EXPECT_EQ(r.solve_info.method, e.method) << "case " << c;
  }
}

}  // namespace
}  // namespace esched
