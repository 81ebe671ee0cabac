// Tests for the multi-class extension (paper §6): N classes with
// individual parallelizability caps under static priority orders. The
// two-class reduction is validated against the main two-class simulator
// and the QBD analyses.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/if_analysis.hpp"
#include "studies/multiclass.hpp"

namespace esched {
namespace {

MultiClassParams two_class(double rho) {
  // Mirror of SystemParams::from_load(4, mu_i=2, mu_e=1, rho) with the
  // inelastic class as class 0 (cap 1) and fully elastic class 1 (cap k).
  MultiClassParams p;
  p.k = 4;
  const double lambda = rho * 4.0 * 2.0 * 1.0 / (2.0 + 1.0);
  p.classes.push_back({"inelastic", lambda, 2.0, 1.0});
  p.classes.push_back({"elastic", lambda, 1.0, 4.0});
  return p;
}

MultiClassSimOptions fast_opts(std::uint64_t seed = 1) {
  MultiClassSimOptions opt;
  opt.num_jobs = 120000;
  opt.warmup_jobs = 12000;
  opt.seed = seed;
  return opt;
}

TEST(MultiClassParams, LoadAndValidation) {
  MultiClassParams p = two_class(0.7);
  EXPECT_NEAR(p.rho(), 0.7, 1e-12);
  EXPECT_NO_THROW(p.validate());
  p.classes[0].cap = 0.5;
  EXPECT_THROW(p.validate(), Error);
  p.classes[0].cap = 9.0;  // > k
  EXPECT_THROW(p.validate(), Error);
}

TEST(MultiClass, PriorityOrderHelpers) {
  MultiClassParams p;
  p.k = 8;
  p.classes.push_back({"a", 0.1, 1.0, 8.0});  // fully elastic
  p.classes.push_back({"b", 0.1, 4.0, 1.0});  // inelastic, small
  p.classes.push_back({"c", 0.1, 0.5, 4.0});  // partially elastic, large
  const auto lpf = least_parallelizable_first(p);
  EXPECT_EQ(lpf, (std::vector<int>{1, 2, 0}));
  const auto mpf = most_parallelizable_first(p);
  EXPECT_EQ(mpf, (std::vector<int>{0, 2, 1}));
  const auto ssf = smallest_size_first(p);
  EXPECT_EQ(ssf, (std::vector<int>{1, 0, 2}));
}

TEST(MultiClass, RejectsBadOrders) {
  const MultiClassParams p = two_class(0.5);
  EXPECT_THROW(simulate_multiclass(p, {0}, fast_opts()), Error);
  EXPECT_THROW(simulate_multiclass(p, {0, 0}, fast_opts()), Error);
  EXPECT_THROW(simulate_multiclass(p, {0, 5}, fast_opts()), Error);
}

TEST(MultiClass, TwoClassReductionMatchesIfAnalysis) {
  // Priority to the inelastic class == the paper's IF.
  const MultiClassParams p = two_class(0.7);
  const SystemParams sp = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  const double analytic = analyze_inelastic_first(sp).mean_response_time;
  const MultiClassSimResult r =
      simulate_multiclass(p, {0, 1}, fast_opts(11));
  EXPECT_LT(relative_error(r.mean_response_time.mean, analytic), 0.04);
}

TEST(MultiClass, TwoClassReductionMatchesEfAnalysis) {
  // Priority to the elastic class == the paper's EF.
  const MultiClassParams p = two_class(0.7);
  const SystemParams sp = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  const double analytic = analyze_elastic_first(sp).mean_response_time;
  const MultiClassSimResult r =
      simulate_multiclass(p, {1, 0}, fast_opts(12));
  EXPECT_LT(relative_error(r.mean_response_time.mean, analytic), 0.04);
}

TEST(MultiClass, UtilizationMatchesLoad) {
  const MultiClassParams p = two_class(0.6);
  const MultiClassSimResult r =
      simulate_multiclass(p, {0, 1}, fast_opts(13));
  EXPECT_NEAR(r.utilization, 0.6, 0.02);
}

TEST(MultiClass, ThreeClassesStableAndAccounted) {
  MultiClassParams p;
  p.k = 8;
  p.classes.push_back({"query", 2.0, 4.0, 1.0});    // rho 1/16
  p.classes.push_back({"batch", 0.5, 0.25, 8.0});   // rho 1/4
  p.classes.push_back({"medium", 1.0, 1.0, 4.0});   // rho 1/8
  ASSERT_LT(p.rho(), 1.0);
  const MultiClassSimResult r =
      simulate_multiclass(p, least_parallelizable_first(p), fast_opts(14));
  EXPECT_GT(r.mean_response_time.mean, 0.0);
  // All classes complete jobs roughly in proportion to their arrival rates.
  const double total = static_cast<double>(
      r.class_completed[0] + r.class_completed[1] + r.class_completed[2]);
  EXPECT_NEAR(static_cast<double>(r.class_completed[0]) / total,
              2.0 / 3.5, 0.05);
  // Highest-priority small class sees near-service-time response.
  EXPECT_LT(r.class_response_time[0], 2.0 / 4.0);
}

TEST(MultiClass, Theorem5GeneralizationHoldsInSimulation) {
  // Three classes where caps and sizes are aligned (less parallelizable
  // => smaller): least-parallelizable-first should beat the reverse,
  // generalizing IF-optimality.
  MultiClassParams p;
  p.k = 8;
  p.classes.push_back({"tiny-rigid", 4.0, 8.0, 1.0});
  p.classes.push_back({"mid", 1.0, 1.0, 4.0});
  p.classes.push_back({"huge-elastic", 0.2, 0.125, 8.0});
  ASSERT_LT(p.rho(), 1.0);
  const MultiClassSimResult forward = simulate_multiclass(
      p, least_parallelizable_first(p), fast_opts(15));
  const MultiClassSimResult reverse = simulate_multiclass(
      p, most_parallelizable_first(p), fast_opts(15));
  EXPECT_LT(forward.mean_response_time.mean,
            reverse.mean_response_time.mean);
}

TEST(MultiClass, DeterministicGivenSeed) {
  const MultiClassParams p = two_class(0.5);
  MultiClassSimOptions opt = fast_opts(77);
  opt.num_jobs = 20000;
  opt.warmup_jobs = 2000;
  const MultiClassSimResult a = simulate_multiclass(p, {0, 1}, opt);
  const MultiClassSimResult b = simulate_multiclass(p, {0, 1}, opt);
  EXPECT_DOUBLE_EQ(a.mean_response_time.mean, b.mean_response_time.mean);
}

}  // namespace
}  // namespace esched
