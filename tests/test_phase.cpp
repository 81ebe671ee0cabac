// Unit tests for phase-type distributions and the three-moment Coxian fit
// (the §5.2 busy-period transformation machinery).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "phase/fit.hpp"
#include "phase/phase_type.hpp"
#include "queueing/mm1.hpp"
#include "rng/xoshiro.hpp"
#include "stats/accumulator.hpp"

namespace esched {
namespace {

TEST(PhaseType, ExponentialMoments) {
  const PhaseType d = PhaseType::exponential(2.0);
  EXPECT_NEAR(d.mean(), 0.5, 1e-12);
  EXPECT_NEAR(d.raw_moment(2), 0.5, 1e-12);        // 2/rate^2
  EXPECT_NEAR(d.raw_moment(3), 6.0 / 8.0, 1e-12);  // 6/rate^3
  EXPECT_NEAR(d.scv(), 1.0, 1e-12);
}

TEST(PhaseType, ErlangMoments) {
  const int n = 4;
  const double rate = 3.0;
  const PhaseType d = PhaseType::erlang(n, rate);
  EXPECT_NEAR(d.mean(), n / rate, 1e-12);
  EXPECT_NEAR(d.variance(), n / (rate * rate), 1e-12);
  EXPECT_NEAR(d.scv(), 1.0 / n, 1e-12);
}

TEST(PhaseType, HyperexponentialMoments) {
  // Mixture 0.3 Exp(1) + 0.7 Exp(5).
  const PhaseType d = PhaseType::hyperexponential({0.3, 0.7}, {1.0, 5.0});
  const double m1 = 0.3 / 1.0 + 0.7 / 5.0;
  const double m2 = 0.3 * 2.0 / 1.0 + 0.7 * 2.0 / 25.0;
  const double m3 = 0.3 * 6.0 / 1.0 + 0.7 * 6.0 / 125.0;
  EXPECT_NEAR(d.mean(), m1, 1e-12);
  EXPECT_NEAR(d.raw_moment(2), m2, 1e-12);
  EXPECT_NEAR(d.raw_moment(3), m3, 1e-12);
  EXPECT_GT(d.scv(), 1.0);
}

TEST(PhaseType, Coxian2Moments) {
  // Coxian(nu1=2, nu2=1, p=0.5): m1 = 1/2 + 0.5 * 1 = 1.
  const PhaseType d = PhaseType::coxian2(2.0, 1.0, 0.5);
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
  // m2 = 2 (1/nu1^2 + p/(nu1 nu2) + p/nu2^2) = 2 (0.25 + 0.25 + 0.5) = 2.
  EXPECT_NEAR(d.raw_moment(2), 2.0, 1e-12);
}

TEST(PhaseType, SamplingMatchesMoments) {
  const PhaseType d = PhaseType::coxian2(2.0, 1.0, 0.5);
  Xoshiro256 rng(11);
  MomentAccumulator acc;
  for (int n = 0; n < 300000; ++n) acc.add(d.sample(rng));
  EXPECT_NEAR(acc.raw_moment(1), d.raw_moment(1), 0.01);
  EXPECT_NEAR(acc.raw_moment(2) / d.raw_moment(2), 1.0, 0.03);
}

TEST(PhaseType, HyperexponentialSamplingUsesAllBranches) {
  const PhaseType d = PhaseType::hyperexponential({0.5, 0.5}, {10.0, 0.1});
  Xoshiro256 rng(12);
  Accumulator acc;
  for (int n = 0; n < 200000; ++n) acc.add(d.sample(rng));
  EXPECT_NEAR(acc.mean(), d.mean(), 0.1);
}

TEST(PhaseType, RejectsInvalidConstruction) {
  Matrix bad(1, 1);
  bad(0, 0) = 1.0;  // positive diagonal
  EXPECT_THROW(PhaseType(Vector{1.0}, bad), Error);
  Matrix ok(1, 1);
  ok(0, 0) = -1.0;
  EXPECT_THROW(PhaseType(Vector{0.5}, ok), Error);  // alpha sum != 1
  EXPECT_THROW(PhaseType::coxian2(0.0, 1.0, 0.5), Error);
  EXPECT_THROW(PhaseType::coxian2(1.0, 1.0, 1.5), Error);
  EXPECT_THROW(PhaseType::erlang(0, 1.0), Error);
}

TEST(Coxian2Fit, RoundTripsKnownCoxians) {
  // Fit the moments of known Coxian-2s; the fitted distribution must
  // reproduce all three moments even if the parameters differ.
  const struct {
    double nu1, nu2, p;
  } cases[] = {{2.0, 1.0, 0.5}, {5.0, 0.5, 0.2}, {1.0, 0.9, 0.9}};
  for (const auto& c : cases) {
    const PhaseType original = PhaseType::coxian2(c.nu1, c.nu2, c.p);
    const Moments3 m = original.moments3();
    if (!coxian2_feasible(m)) continue;  // low-variability Coxians skip
    const PhaseType fitted = fit_coxian2(m).to_phase_type();
    EXPECT_NEAR(fitted.raw_moment(1) / m.m1, 1.0, 1e-9);
    EXPECT_NEAR(fitted.raw_moment(2) / m.m2, 1.0, 1e-9);
    EXPECT_NEAR(fitted.raw_moment(3) / m.m3, 1.0, 1e-7);
  }
}

TEST(Coxian2Fit, MatchesExponentialExactly) {
  const Moments3 m = {2.0, 8.0, 48.0};  // Exp(0.5)
  ASSERT_TRUE(coxian2_feasible(m));
  const Coxian2Params fit = fit_coxian2(m);
  EXPECT_NEAR(fit.nu1, 0.5, 1e-9);
  EXPECT_NEAR(fit.p, 0.0, 1e-9);
}

TEST(Coxian2Fit, FitsMM1BusyPeriods) {
  // The actual §5.2 use case: busy periods at a range of loads.
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9, 0.95}) {
    const MM1 queue(rho * 2.0, 2.0);
    const Moments3 m = queue.busy_period_moments();
    ASSERT_TRUE(coxian2_feasible(m)) << "rho=" << rho;
    const PhaseType fitted = fit_coxian2(m).to_phase_type();
    EXPECT_NEAR(fitted.raw_moment(1) / m.m1, 1.0, 1e-9) << "rho=" << rho;
    EXPECT_NEAR(fitted.raw_moment(2) / m.m2, 1.0, 1e-9) << "rho=" << rho;
    EXPECT_NEAR(fitted.raw_moment(3) / m.m3, 1.0, 1e-6) << "rho=" << rho;
  }
}

TEST(Coxian2Fit, FeasibilityBoundary) {
  // SCV < 1 is infeasible for a Coxian-2 initial-phase-1 representation.
  const PhaseType erl = PhaseType::erlang(3, 1.0);
  EXPECT_FALSE(coxian2_feasible(erl.moments3()));
  EXPECT_THROW(fit_coxian2(erl.moments3()), Error);
  // Third moment below the bound is infeasible too.
  Moments3 bad = {1.0, 3.0, 1.0};
  EXPECT_FALSE(coxian2_feasible(bad));
}

std::string hexfloat(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(Coxian2Fit, BitwisePinned) {
  // Pins the bits of fit_coxian2's bisection. The M/M/1 busy periods at
  // (0.5, 1), (0.9, 2), (0.98, 2) and (0.5, 8) reach adjacent-double
  // brackets wider than the 1e-16 m1 exit test, so the bisection ran all
  // 200 iterations on them when these values were recorded. Never
  // regenerate them to make a change pass.
  const PhaseType hyper =
      PhaseType::hyperexponential({0.4, 0.6}, {0.5, 4.0});
  const Moments3 two_moment = {2.0, 12.0, 1.5 * 12.0 * 12.0 / 2.0};
  const struct {
    const char* name;
    Moments3 moments;
    double nu1, nu2, p;
  } cases[] = {
      {"busy (0.5, 1)", MM1(0.5, 1.0).busy_period_moments(),
       0x1.b504f333f9de8p-1, 0x1.2bec333018867p-3, 0x1.f0ed99bed9b3p-4},
      {"busy (0.9, 1)", MM1(0.9, 1.0).busy_period_moments(),
       0x1.8f17207c4f8a2p-3, 0x1.504f23a941eep-8, 0x1.9950e218444ebp-6},
      {"busy (0.9, 2)", MM1(0.9, 2.0).busy_period_moments(),
       0x1.d680c61925ee8p+0, 0x1.72c9b46835128p-2, 0x1.0eab661d6b642p-3},
      {"busy (0.98, 2)", MM1(0.98, 2.0).busy_period_moments(),
       0x1.bbe76c8b4395ep+0, 0x1.395810624dd31p-2, 0x1.f9f9f9f9f9faap-4},
      {"busy (0.5, 4)", MM1(0.5, 4.0).busy_period_moments(),
       0x1.2f322a66bd516p+2, 0x1.219bab32855d7p+1, 0x1.59d05079050a2p-3},
      {"busy (0.5, 8)", MM1(0.5, 8.0).busy_period_moments(),
       0x1.2c00000000003p+3, 0x1.6800000000004p+2, 0x1.3333333333343p-3},
      {"hyperexponential", hyper.moments3(),
       0x1p+2, 0x1p-1, 0x1.6666666666667p-2},
      {"m3 on the bound", two_moment,
       0x1.3de430f345c68p+27, 0x1.5555554f9b515p-2, 0x1.5555553e6d453p-1},
      {"Coxian (5, 0.5, 0.2)",
       PhaseType::coxian2(5.0, 0.5, 0.2).moments3(),
       0x1.3fffffffffffap+2, 0x1.ffffffffffffep-2, 0x1.9999999999994p-3},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Coxian2Params fit = fit_coxian2(c.moments);
    EXPECT_EQ(hexfloat(fit.nu1), hexfloat(c.nu1));
    EXPECT_EQ(hexfloat(fit.nu2), hexfloat(c.nu2));
    EXPECT_EQ(hexfloat(fit.p), hexfloat(c.p));
  }
}

TEST(FitMoments3, HighVariabilityUsesCoxian) {
  const PhaseType hyper = PhaseType::hyperexponential({0.4, 0.6}, {0.5, 4.0});
  const Moments3 m = hyper.moments3();
  const PhaseType fitted = fit_moments3(m);
  EXPECT_NEAR(fitted.raw_moment(1) / m.m1, 1.0, 1e-9);
  EXPECT_NEAR(fitted.raw_moment(2) / m.m2, 1.0, 1e-9);
  EXPECT_NEAR(fitted.raw_moment(3) / m.m3, 1.0, 1e-6);
}

TEST(FitMoments3, LowVariabilityFallsBackToMixedErlang) {
  const PhaseType erl = PhaseType::erlang(5, 2.0);
  const Moments3 m = erl.moments3();
  const PhaseType fitted = fit_moments3(m);
  // Two moments exact; the third is whatever the mixed-Erlang family gives.
  EXPECT_NEAR(fitted.raw_moment(1) / m.m1, 1.0, 1e-9);
  EXPECT_NEAR(fitted.raw_moment(2) / m.m2, 1.0, 1e-9);
}

}  // namespace
}  // namespace esched
