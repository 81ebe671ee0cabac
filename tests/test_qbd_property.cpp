// Property tests for the QBD solver: randomized processes (random phase
// counts, random rates, random boundary depths) solved matrix-analytically
// must agree with brute-force GTH on deep truncations of the same chain.
// This is the hardening test for the paper's §5.3 machinery.
#include <gtest/gtest.h>

#include <vector>

#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "qbd/qbd.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/qbd_levels.hpp"

namespace esched {
namespace {

struct RandomQbdCase {
  std::uint64_t seed;
  std::size_t phases;
  std::size_t boundary_levels;
};

/// Builds a random stable QBD: dense-ish local/up/down rates with the down
/// rates scaled up to guarantee positive recurrence.
QbdProcess random_qbd(const RandomQbdCase& c) {
  Xoshiro256 rng(c.seed);
  const std::size_t m = c.phases;
  auto random_block = [&](double scale, bool allow_diag) {
    Matrix b(m, m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t col = 0; col < m; ++col) {
        if (!allow_diag && r == col) continue;
        if (bernoulli(rng, 0.6)) b(r, col) = uniform(rng, 0.05, scale);
      }
    }
    return b;
  };
  QbdProcess p;
  p.num_phases = m;
  p.first_repeating = c.boundary_levels;
  p.rep_up = random_block(0.5, true);
  p.rep_local = random_block(1.0, false);
  // Down rates dominate up rates so the process is stable.
  p.rep_down = random_block(1.0, true);
  for (std::size_t r = 0; r < m; ++r) {
    double up_sum = 0.0;
    double down_sum = 0.0;
    for (std::size_t col = 0; col < m; ++col) {
      up_sum += p.rep_up(r, col);
      down_sum += p.rep_down(r, col);
    }
    // Only ever ADD diagonal mass so all rates stay non-negative.
    const double needed = 2.0 * up_sum + 0.5 - down_sum;
    if (needed > 0.0) p.rep_down(r, r) += needed;
  }
  for (std::size_t l = 0; l < c.boundary_levels; ++l) {
    p.up.push_back(random_block(0.5, true));
    p.local.push_back(random_block(1.0, false));
    if (l == 0) {
      p.down.emplace_back(m, m);
    } else {
      Matrix d = p.rep_down;
      d *= uniform(rng, 0.3, 1.0);  // weaker service near the boundary
      p.down.push_back(std::move(d));
    }
  }
  return p;
}

/// Brute force: unroll `levels` levels into a sparse chain, solve with GTH.
Vector truncated_reference(const QbdProcess& p, std::size_t levels,
                           double* mean_level_out) {
  const std::size_t m = p.num_phases;
  SparseCtmc chain(levels * m);
  const auto idx = [m](std::size_t level, std::size_t phase) {
    return level * m + phase;
  };
  auto up_block = [&](std::size_t l) -> const Matrix& {
    return l < p.first_repeating ? p.up[l] : p.rep_up;
  };
  auto local_block = [&](std::size_t l) -> const Matrix& {
    return l < p.first_repeating ? p.local[l] : p.rep_local;
  };
  auto down_block = [&](std::size_t l) -> const Matrix& {
    return l < p.first_repeating ? p.down[l] : p.rep_down;
  };
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) {
        if (l + 1 < levels && up_block(l)(r, c) > 0.0) {
          chain.add_rate(idx(l, r), idx(l + 1, c), up_block(l)(r, c));
        }
        if (r != c && local_block(l)(r, c) > 0.0) {
          chain.add_rate(idx(l, r), idx(l, c), local_block(l)(r, c));
        }
        if (l >= 1 && down_block(l)(r, c) > 0.0) {
          chain.add_rate(idx(l, r), idx(l - 1, c), down_block(l)(r, c));
        }
      }
    }
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  double mean = 0.0;
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t r = 0; r < m; ++r) {
      mean += static_cast<double>(l) * pi[idx(l, r)];
    }
  }
  if (mean_level_out != nullptr) *mean_level_out = mean;
  return pi;
}

class RandomQbd : public testing::TestWithParam<RandomQbdCase> {};

TEST_P(RandomQbd, MatrixAnalyticAgreesWithGth) {
  const RandomQbdCase& c = GetParam();
  const QbdProcess p = random_qbd(c);
  ASSERT_NO_THROW(p.validate());
  const QbdSolution sol = solve_qbd(p);
  EXPECT_LT(sol.r_residual, 1e-9);
  EXPECT_LT(sol.spectral_radius, 1.0);

  // Deep truncation: the strong down-drift makes 80 levels plenty.
  const std::size_t levels = 80;
  double ref_mean = 0.0;
  const Vector ref = truncated_reference(p, levels, &ref_mean);
  EXPECT_NEAR(sol.mean_level(), ref_mean, 1e-6 * (1.0 + ref_mean));
  for (std::size_t l = 0; l < 6; ++l) {
    double ref_level = 0.0;
    for (std::size_t r = 0; r < p.num_phases; ++r) {
      ref_level += ref[l * p.num_phases + r];
    }
    EXPECT_NEAR(qbd_level_probability(sol, l), ref_level, 1e-8)
        << "level " << l;
  }
  // Phase marginal sums to one.
  const Vector marginal = qbd_phase_marginal(sol);
  double total = 0.0;
  for (double v : marginal) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweep, RandomQbd,
    testing::Values(RandomQbdCase{1, 1, 1}, RandomQbdCase{2, 2, 1},
                    RandomQbdCase{3, 2, 3}, RandomQbdCase{4, 3, 2},
                    RandomQbdCase{5, 4, 1}, RandomQbdCase{6, 4, 4},
                    RandomQbdCase{7, 6, 2}, RandomQbdCase{8, 8, 1},
                    RandomQbdCase{9, 5, 5}, RandomQbdCase{10, 3, 6}));

}  // namespace
}  // namespace esched
