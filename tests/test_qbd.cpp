// Unit tests for the QBD matrix-analytic solver: validated against M/M/1
// (single phase), M/M/k (boundary levels), and brute-force GTH solves of
// deeply truncated versions of the same processes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "qbd/qbd.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"

namespace esched {
namespace {

/// M/M/1 as a QBD with a single phase.
QbdProcess mm1_qbd(double lambda, double mu) {
  QbdProcess p;
  p.num_phases = 1;
  p.first_repeating = 1;
  Matrix up(1, 1);
  up(0, 0) = lambda;
  Matrix zero(1, 1);
  Matrix down(1, 1);
  down(0, 0) = mu;
  p.up = {up};
  p.local = {zero};
  p.down = {zero};
  p.rep_up = up;
  p.rep_local = zero;
  p.rep_down = down;
  return p;
}

/// M/M/k as a QBD: single phase, boundary levels 0..k-1 with service i*mu.
QbdProcess mmk_qbd(double lambda, double mu, int k) {
  QbdProcess p;
  p.num_phases = 1;
  p.first_repeating = static_cast<std::size_t>(k);
  Matrix up(1, 1);
  up(0, 0) = lambda;
  Matrix zero(1, 1);
  for (int l = 0; l < k; ++l) {
    Matrix down(1, 1);
    down(0, 0) = static_cast<double>(l) * mu;
    p.up.push_back(up);
    p.local.push_back(zero);
    p.down.push_back(down);
  }
  Matrix rep_down(1, 1);
  rep_down(0, 0) = static_cast<double>(k) * mu;
  p.rep_up = up;
  p.rep_local = zero;
  p.rep_down = rep_down;
  return p;
}

TEST(Qbd, MM1GeometricSolution) {
  const double lambda = 0.6;
  const double mu = 1.0;
  const QbdSolution sol = solve_qbd(mm1_qbd(lambda, mu));
  const double rho = lambda / mu;
  // R is scalar rho; levels are geometric; mean level is rho/(1-rho).
  EXPECT_NEAR(sol.r(0, 0), rho, 1e-12);
  EXPECT_NEAR(sol.spectral_radius, rho, 1e-10);
  EXPECT_NEAR(sol.level_probability(0), 1.0 - rho, 1e-12);
  EXPECT_NEAR(sol.level_probability(5), (1.0 - rho) * std::pow(rho, 5),
              1e-12);
  EXPECT_NEAR(sol.mean_level(), MM1(lambda, mu).mean_jobs(), 1e-10);
}

TEST(Qbd, MMkMatchesErlangC) {
  for (int k : {2, 4, 7}) {
    const double mu = 1.0;
    const double lambda = 0.75 * k * mu;
    const QbdSolution sol = solve_qbd(mmk_qbd(lambda, mu, k));
    EXPECT_NEAR(sol.mean_level(), MMk(lambda, mu, k).mean_jobs(), 1e-9)
        << "k=" << k;
  }
}

/// A two-phase QBD with phase switching, solved both matrix-analytically
/// and by GTH on a deep truncation.
QbdProcess two_phase_qbd() {
  QbdProcess p;
  p.num_phases = 2;
  p.first_repeating = 1;
  Matrix up(2, 2);
  up(0, 0) = 0.5;  // arrivals in phase 0
  up(1, 1) = 0.2;  // slower arrivals in phase 1
  Matrix local(2, 2);
  local(0, 1) = 0.3;  // phase flip rates
  local(1, 0) = 0.7;
  Matrix down0(2, 2);
  Matrix down(2, 2);
  down(0, 0) = 1.0;  // service in phase 0
  down(1, 1) = 0.4;  // slower service in phase 1
  p.up = {up};
  p.local = {local};
  p.down = {down0};
  p.rep_up = up;
  p.rep_local = local;
  p.rep_down = down;
  return p;
}

TEST(Qbd, TwoPhaseAgreesWithTruncatedGth) {
  const QbdProcess p = two_phase_qbd();
  const QbdSolution sol = solve_qbd(p);
  EXPECT_LT(sol.r_residual, 1e-10);
  EXPECT_LT(sol.spectral_radius, 1.0);

  // Brute force: truncate at 200 levels and solve with GTH.
  const std::size_t levels = 200;
  SparseCtmc chain(levels * 2);
  const auto idx = [](std::size_t level, std::size_t phase) {
    return level * 2 + phase;
  };
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t s = 0; s < 2; ++s) {
      if (l + 1 < levels) {
        chain.add_rate(idx(l, s), idx(l + 1, s), p.rep_up(s, s));
      }
      for (std::size_t s2 = 0; s2 < 2; ++s2) {
        if (s2 != s && p.rep_local(s, s2) > 0) {
          chain.add_rate(idx(l, s), idx(l, s2), p.rep_local(s, s2));
        }
      }
      if (l >= 1 && p.rep_down(s, s) > 0) {
        chain.add_rate(idx(l, s), idx(l - 1, s), p.rep_down(s, s));
      }
    }
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain);

  // Compare level distributions and the mean.
  double mean = 0.0;
  for (std::size_t l = 0; l < levels; ++l) {
    const double mass = pi[idx(l, 0)] + pi[idx(l, 1)];
    mean += static_cast<double>(l) * mass;
    if (l <= 10) {
      EXPECT_NEAR(sol.level_probability(l), mass, 1e-8) << "level " << l;
    }
  }
  EXPECT_NEAR(sol.mean_level(), mean, 1e-6);

  // Phase marginal must also agree.
  const Vector marginal = sol.phase_marginal();
  double phase0 = 0.0;
  for (std::size_t l = 0; l < levels; ++l) phase0 += pi[idx(l, 0)];
  EXPECT_NEAR(marginal[0], phase0, 1e-8);
  EXPECT_NEAR(marginal[0] + marginal[1], 1.0, 1e-10);
}

TEST(Qbd, BoundaryLevelsWithDifferentRates) {
  // M/M/3-style: three boundary levels, checked against GTH truncation.
  const QbdProcess p = mmk_qbd(2.0, 1.0, 3);
  const QbdSolution sol = solve_qbd(p);

  const std::size_t levels = 150;
  SparseCtmc chain(levels);
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    chain.add_rate(l, l + 1, 2.0);
  }
  for (std::size_t l = 1; l < levels; ++l) {
    chain.add_rate(l, l - 1, std::min<double>(static_cast<double>(l), 3.0));
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain);
  for (std::size_t l = 0; l <= 8; ++l) {
    EXPECT_NEAR(sol.level_probability(l), pi[l], 1e-9) << "level " << l;
  }
}

TEST(Qbd, ProbabilitiesSumToOne) {
  const QbdSolution sol = solve_qbd(two_phase_qbd());
  double total = 0.0;
  for (std::size_t l = 0; l < 2000; ++l) total += sol.level_probability(l);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Qbd, UnstableProcessThrows) {
  EXPECT_THROW(solve_qbd(mm1_qbd(2.0, 1.0)), Error);
  // Null recurrent: G is stochastic but sp(R) = 1, so no stationary law.
  EXPECT_THROW(solve_qbd(mm1_qbd(1.0, 1.0)), Error);
}

TEST(Qbd, NearlyCriticalMM1MeanLevel) {
  // At rho = 1 - 1e-6 a linearly converging R iteration stops far short of
  // the fixed point; the mean level rho/(1-rho) ~ 1e6 exposes it.
  const double rho = 1.0 - 1e-6;
  const QbdSolution sol = solve_qbd(mm1_qbd(rho, 1.0));
  const double expected = rho / (1.0 - rho);
  EXPECT_NEAR(sol.mean_level(), expected, 1e-3 * expected);
}

TEST(Qbd, ValidateCatchesShapeErrors) {
  QbdProcess p = mm1_qbd(0.5, 1.0);
  p.rep_down = Matrix(2, 2);
  EXPECT_THROW(p.validate(), Error);
  QbdProcess q = mm1_qbd(0.5, 1.0);
  q.down[0](0, 0) = 1.0;  // down from level 0 is impossible
  EXPECT_THROW(q.validate(), Error);
}

}  // namespace
}  // namespace esched
