// Tests for the §5 / Appendix D response-time analyses: the busy-period
// transformation + QBD pipeline must agree with the exact truncated 2-D
// chain to within the paper's stated ~1% accuracy, and must reduce to
// closed forms in the degenerate cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
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

TEST(ExactCtmc, AllStationaryMethodsAgree) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions base;
  base.imax = 20;
  base.jmax = 20;  // 441 states
  ExactCtmcResult by_method[3];
  const StationaryMethod methods[] = {StationaryMethod::kGth,
                                      StationaryMethod::kSor,
                                      StationaryMethod::kBlock};
  for (int m = 0; m < 3; ++m) {
    ExactCtmcOptions options = base;
    options.method = methods[m];
    by_method[m] = solve_exact_ctmc(p, InelasticFirst{}, options);
    EXPECT_EQ(by_method[m].solve_info.method,
              stationary_method_name(methods[m]));
  }
  // The two direct solvers agree to near machine precision; SOR to its
  // convergence tolerance.
  EXPECT_NEAR(by_method[0].mean_response_time,
              by_method[2].mean_response_time, 1e-10);
  EXPECT_NEAR(by_method[0].mean_jobs_i, by_method[2].mean_jobs_i, 1e-10);
  EXPECT_NEAR(by_method[0].mean_response_time,
              by_method[1].mean_response_time, 1e-7);
}

TEST(ExactCtmc, AutoSelectsGthSmallAndBlockLarge) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions small;
  small.imax = 10;
  small.jmax = 10;  // 121 states <= gth_state_limit
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, small).solve_info.method,
            "gth");
  ExactCtmcOptions large;
  large.imax = 30;
  large.jmax = 30;  // 961 states > gth_state_limit -> block
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, large).solve_info.method,
            "block");
}

TEST(ExactCtmc, ExplicitGthRejectsChainOverDenseLimit) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions options;
  options.imax = 100;
  options.jmax = 100;  // 10201 states > the 5000-state dense limit
  options.method = StationaryMethod::kGth;
  EXPECT_THROW(solve_exact_ctmc(p, InelasticFirst{}, options), Error);
}

TEST(ExactCtmc, PhaseTypeBlockAgreesWithSor) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.6);
  const PhaseType erl2 = PhaseType::erlang(2, 2.0 * p.mu_i);
  ExactCtmcOptions block;
  block.imax = 12;
  block.jmax = 12;
  block.method = StationaryMethod::kBlock;
  ExactCtmcOptions sor = block;
  sor.method = StationaryMethod::kSor;
  const ExactCtmcResult a = solve_exact_ctmc_ph(p, ElasticFirst{}, erl2, block);
  const ExactCtmcResult b = solve_exact_ctmc_ph(p, ElasticFirst{}, erl2, sor);
  EXPECT_EQ(a.solve_info.method, "block");
  EXPECT_EQ(b.solve_info.method, "sor");
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_NEAR(a.mean_response_time, b.mean_response_time, 1e-7);
  EXPECT_NEAR(a.mean_jobs_i, b.mean_jobs_i, 1e-7);
}

std::uint64_t block_axis_solves(char axis) {
  return global_metrics()
      .counter(std::string("exact.method.block.axis.") + axis)
      .total();
}

/// Auto-routed solve of `policy` that also reports which block axis ran
/// ('i', 'j', or '-' when the block solver did not run).
ExactCtmcResult solve_auto(const SystemParams& p,
                           const AllocationPolicy& policy,
                           const ExactCtmcOptions& options, char* axis) {
  const std::uint64_t i_before = block_axis_solves('i');
  const std::uint64_t j_before = block_axis_solves('j');
  ExactCtmcResult r = solve_exact_ctmc(p, policy, options);
  const std::uint64_t di = block_axis_solves('i') - i_before;
  const std::uint64_t dj = block_axis_solves('j') - j_before;
  EXPECT_LE(di + dj, 1u);
  *axis = di == 1 ? 'i' : dj == 1 ? 'j' : '-';
  return r;
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
    char axis = '?';
    const ExactCtmcResult automatic = solve_auto(p, c.policy, options, &axis);
    EXPECT_EQ(automatic.solve_info.method, "block");
    EXPECT_EQ(axis, c.axis);
    ExactCtmcOptions gth = options;
    gth.method = StationaryMethod::kGth;
    // SOR stops on the residual; at the default 1e-12 its E[T] here is
    // off by ~2e-9, so the reference iterates further.
    ExactCtmcOptions sor = options;
    sor.method = StationaryMethod::kSor;
    sor.sor_tol = 1e-14;
    EXPECT_NEAR(automatic.mean_response_time,
                solve_exact_ctmc(p, c.policy, gth).mean_response_time, 1e-10);
    EXPECT_NEAR(automatic.mean_response_time,
                solve_exact_ctmc(p, c.policy, sor).mean_response_time, 1e-9);
    // The batch and the one-shot entry point share the axis pick.
    ExactCtmcBatch batch(p, options);
    const ExactCtmcResult batched = batch.solve(c.policy);
    EXPECT_EQ(batched.mean_response_time, automatic.mean_response_time);
    EXPECT_EQ(batched.mean_jobs_i, automatic.mean_jobs_i);
    EXPECT_EQ(batched.mean_jobs_e, automatic.mean_jobs_e);
    EXPECT_EQ(batched.boundary_mass, automatic.boundary_mass);
    EXPECT_EQ(batched.solve_info.residual, automatic.solve_info.residual);
  }
}

TEST(ExactCtmc, NonSquareChainTakesTheAxisWithTheLowerFlopEstimate) {
  // 61 N_I levels of 21 states against 21 N_E levels of 61: the longer
  // axis is N_I, but under IF it folds every column, so N_E must win.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const InelasticFirst policy;
  const long imax = 60, jmax = 20;
  const long nj = jmax + 1;
  SparseCtmc chain(static_cast<std::size_t>((imax + 1) * nj));
  std::vector<std::uint32_t> by_i(chain.num_states());
  std::vector<std::uint32_t> by_j(chain.num_states());
  for (long i = 0; i <= imax; ++i) {
    for (long j = 0; j <= jmax; ++j) {
      const auto s = static_cast<std::size_t>(i * nj + j);
      by_i[s] = static_cast<std::uint32_t>(i);
      by_j[s] = static_cast<std::uint32_t>(j);
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
  const double flops_i = block_solver_flop_estimate(chain.rate_matrix(), by_i);
  const double flops_j = block_solver_flop_estimate(chain.rate_matrix(), by_j);
  EXPECT_LT(flops_j, flops_i);

  ExactCtmcOptions options;
  options.imax = imax;
  options.jmax = jmax;
  char axis = '?';
  const ExactCtmcResult automatic = solve_auto(p, policy, options, &axis);
  EXPECT_EQ(automatic.solve_info.method, "block");
  EXPECT_EQ(axis, 'j');
  ExactCtmcOptions gth = options;
  gth.method = StationaryMethod::kGth;
  EXPECT_NEAR(automatic.mean_response_time,
              solve_exact_ctmc(p, policy, gth).mean_response_time, 1e-10);
  // Explicit 'block' takes the same axis, so it matches auto bitwise.
  ExactCtmcOptions block = options;
  block.method = StationaryMethod::kBlock;
  EXPECT_EQ(solve_exact_ctmc(p, policy, block).mean_response_time,
            automatic.mean_response_time);
}

}  // namespace
}  // namespace esched
