// Unit tests for the CTMC toolkit: stationary solvers cross-checked
// against closed forms and each other, absorbing-chain rewards, and the
// birth-death first-passage recursion validated against the M/M/1
// busy-period closed forms it is meant to certify.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/absorbing.hpp"
#include "markov/birth_death.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/nested_dissection.hpp"
#include "markov/stationary.hpp"

namespace esched {
namespace {

/// Truncated M/M/1 chain: states 0..n-1, birth lambda, death mu.
SparseCtmc mm1_chain(std::size_t n, double lambda, double mu) {
  SparseCtmc chain(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    chain.add_rate(s, s + 1, lambda);
    chain.add_rate(s + 1, s, mu);
  }
  chain.freeze();
  return chain;
}

TEST(SparseCtmc, BasicAccounting) {
  SparseCtmc chain(3);
  chain.add_rate(0, 1, 2.0);
  chain.add_rate(0, 1, 1.0);  // duplicates accumulate
  chain.add_rate(1, 2, 4.0);
  chain.add_rate(2, 0, 5.0);
  chain.freeze();
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 3.0);
  EXPECT_DOUBLE_EQ(chain.exit_rate(2), 5.0);
  ASSERT_EQ(chain.transitions_from(0).size(), 1u);  // merged
  EXPECT_DOUBLE_EQ(chain.transitions_from(0)[0].rate, 3.0);
}

TEST(SparseCtmc, RejectsInvalidTransitions) {
  SparseCtmc chain(2);
  EXPECT_THROW(chain.add_rate(0, 0, 1.0), Error);   // self loop
  EXPECT_THROW(chain.add_rate(0, 5, 1.0), Error);   // out of range
  EXPECT_THROW(chain.add_rate(0, 1, -1.0), Error);  // negative
}

TEST(Stationary, GthMatchesMM1GeometricDistribution) {
  const double lambda = 0.6;
  const double mu = 1.0;
  const std::size_t n = 60;
  const SparseCtmc chain = mm1_chain(n, lambda, mu);
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  const double rho = lambda / mu;
  // Truncated geometric; truncation error is rho^60 ~ 5e-14.
  for (std::size_t s = 0; s < 10; ++s) {
    EXPECT_NEAR(pi[s], (1.0 - rho) * std::pow(rho, static_cast<double>(s)),
                1e-10);
  }
}

TEST(Stationary, ResidualOfExactSolutionIsTiny) {
  const SparseCtmc chain = mm1_chain(25, 0.4, 1.0);
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  EXPECT_LT(stationary_residual(chain.rate_matrix(), chain.exit_rates(), pi),
            1e-12);
}

TEST(Stationary, ThreeStateCycleKnownAnswer) {
  // Cycle 0 -> 1 -> 2 -> 0 with rates 1, 2, 4: pi proportional to 1/rate.
  SparseCtmc chain(3);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 2, 2.0);
  chain.add_rate(2, 0, 4.0);
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  EXPECT_NEAR(pi[0], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR(pi[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(pi[2], 1.0 / 7.0, 1e-12);
}

TEST(Stationary, ClosedClassesAreTheComponentsNoEdgeLeaves) {
  // 0 <-> 1, 1 -> 2 <-> 3, 1 -> 4 <-> 5, and 6 with no edges: {0, 1}
  // leaks into {2, 3} and {4, 5}, which are closed, as is the lone state 6.
  // Classes come in the order of their smallest state.
  SparseCtmc chain(7);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 0, 1.0);
  chain.add_rate(1, 2, 1.0);
  chain.add_rate(2, 3, 1.0);
  chain.add_rate(3, 2, 1.0);
  chain.add_rate(1, 4, 1.0);
  chain.add_rate(4, 5, 1.0);
  chain.add_rate(5, 4, 1.0);
  chain.freeze();
  const std::vector<std::vector<std::size_t>> expected = {
      {2, 3}, {4, 5}, {6}};
  EXPECT_EQ(closed_classes(chain.rate_matrix()), expected);

  // An irreducible chain is one closed class; a long line exercises the
  // explicit DFS stack (a recursive walk would nest 100,000 deep).
  const SparseCtmc line = mm1_chain(100000, 0.5, 1.0);
  const auto classes = closed_classes(line.rate_matrix());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 100000u);
  // Without the down-edges every state is its own component, and only the
  // top one is closed.
  SparseCtmc up(100000);
  for (std::size_t s = 0; s + 1 < 100000; ++s) up.add_rate(s, s + 1, 1.0);
  up.freeze();
  const std::vector<std::vector<std::size_t>> top = {{99999}};
  EXPECT_EQ(closed_classes(up.rate_matrix()), top);
}

TEST(Absorbing, PureDeathChainOccupancy) {
  // 3 -> 2 -> 1 -> 0 at rate mu: expected time in each transient state is
  // 1/mu; absorption time is 3/mu.
  const double mu = 2.0;
  SparseCtmc chain(4);
  for (std::size_t s = 1; s < 4; ++s) chain.add_rate(s, s - 1, mu);
  chain.freeze();
  Vector initial(4, 0.0);
  initial[3] = 1.0;
  const Vector occ = expected_occupancy(chain, initial);
  EXPECT_NEAR(occ[3], 0.5, 1e-12);
  EXPECT_NEAR(occ[2], 0.5, 1e-12);
  EXPECT_NEAR(occ[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(occ[0], 0.0);  // absorbing
  // Reward 1 on the transient states: the expected time to absorption.
  EXPECT_NEAR(
      expected_accumulated_reward(chain, initial, {0.0, 1.0, 1.0, 1.0}), 1.5,
      1e-12);
}

TEST(Absorbing, AccumulatedRewardWeightsOccupancy) {
  // Same chain; reward = state index (like N(t) in the Theorem 6 use).
  const double mu = 1.0;
  SparseCtmc chain(3);
  chain.add_rate(2, 1, mu);
  chain.add_rate(1, 0, mu);
  chain.freeze();
  Vector initial(3, 0.0);
  initial[2] = 1.0;
  const double reward =
      expected_accumulated_reward(chain, initial, {0.0, 1.0, 2.0});
  // 1/mu in state 2 (reward 2) + 1/mu in state 1 (reward 1) = 3.
  EXPECT_NEAR(reward, 3.0, 1e-12);
}

TEST(Absorbing, RejectsMassOnAbsorbingStates) {
  SparseCtmc chain(2);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  Vector bad(2, 0.0);
  bad[0] = 1.0;
  EXPECT_THROW(expected_occupancy(chain, bad), Error);
}

TEST(BirthDeath, ExponentialWhenNoBirths) {
  // Single state with death rate mu and no birth: T ~ Exp(mu).
  const Moments3 m = birth_death_descent_moments({0.0}, {3.0});
  EXPECT_NEAR(m.m1, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.m2, 2.0 / 9.0, 1e-12);
  EXPECT_NEAR(m.m3, 6.0 / 27.0, 1e-12);
  EXPECT_NEAR(m.scv(), 1.0, 1e-12);
}

TEST(BirthDeath, MatchesMM1BusyPeriodClosedForms) {
  // M/M/1 busy period = descent 1 -> 0 with constant rates. Closed forms:
  // m1 = 1/(mu-lam), m2 = 2 mu/(mu-lam)^3, m3 = 6 mu (mu+lam)/(mu-lam)^5.
  for (double rho : {0.2, 0.5, 0.8}) {
    const double mu = 1.3;
    const double lam = rho * mu;
    // Truncation deep enough that the error is far below the tolerance.
    const std::size_t depth = 400;
    const Moments3 got = birth_death_descent_moments(
        std::vector<double>(depth, lam), std::vector<double>(depth, mu));
    const double gap = mu - lam;
    EXPECT_NEAR(got.m1, 1.0 / gap, 1e-9) << "rho=" << rho;
    EXPECT_NEAR(got.m2 / (2.0 * mu / std::pow(gap, 3)), 1.0, 1e-7)
        << "rho=" << rho;
    EXPECT_NEAR(got.m3 / (6.0 * mu * (mu + lam) / std::pow(gap, 5)), 1.0,
                1e-6)
        << "rho=" << rho;
  }
}

TEST(BirthDeath, RejectsBadInput) {
  EXPECT_THROW(birth_death_descent_moments({}, {}), Error);
  EXPECT_THROW(birth_death_descent_moments({1.0}, {0.0}), Error);
  EXPECT_THROW(birth_death_descent_moments({-1.0}, {1.0}), Error);
}

/// A 5x3 two-dimensional chain, level-structured along i: up/down rates
/// between adjacent levels plus within-level hops, all state-dependent so
/// no accidental symmetry hides accumulation-order differences.
SparseCtmc grid_chain() {
  const std::size_t ni = 5, nj = 3;
  SparseCtmc chain(ni * nj);
  const auto id = [&](std::size_t i, std::size_t j) { return i * nj + j; };
  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j < nj; ++j) {
      if (i + 1 < ni) chain.add_rate(id(i, j), id(i + 1, j), 1.0 + 0.3 * j);
      if (i > 0) chain.add_rate(id(i, j), id(i - 1, j), 2.0 + 0.1 * i);
      if (j + 1 < nj) chain.add_rate(id(i, j), id(i, j + 1), 0.5);
      if (j > 0) chain.add_rate(id(i, j), id(i, j - 1), 0.7);
    }
  }
  chain.freeze();
  return chain;
}

std::vector<std::uint32_t> grid_levels() {
  std::vector<std::uint32_t> level_of(15);
  for (std::size_t s = 0; s < 15; ++s) {
    level_of[s] = static_cast<std::uint32_t>(s / 3);
  }
  return level_of;
}

/// A (imax+1) x (jmax+1) chain laid out like solve_exact_ctmc's: state
/// i * nj + j, arrivals to (i+1, j) and (i, j+1), k servers split between
/// the classes. inelastic_first gives IF's allocation (min(i, k) servers
/// to inelastic jobs, the rest to elastic), otherwise EF's (all k to
/// elastic jobs when any are present).
SparseCtmc two_class_chain(long imax, long jmax, bool inelastic_first) {
  const long nj = jmax + 1;
  const double k = 4.0, lambda_i = 1.1, lambda_e = 0.9, mu_i = 1.0,
               mu_e = 0.7;
  SparseCtmc chain(static_cast<std::size_t>((imax + 1) * nj));
  const auto id = [&](long i, long j) {
    return static_cast<std::size_t>(i * nj + j);
  };
  for (long i = 0; i <= imax; ++i) {
    for (long j = 0; j <= jmax; ++j) {
      const double i_servers =
          inelastic_first || j == 0 ? std::min(static_cast<double>(i), k)
                                    : 0.0;
      const double e_servers = j > 0 ? k - i_servers : 0.0;
      if (i < imax) chain.add_rate(id(i, j), id(i + 1, j), lambda_i);
      if (j < jmax) chain.add_rate(id(i, j), id(i, j + 1), lambda_e);
      if (i > 0) chain.add_rate(id(i, j), id(i - 1, j), i_servers * mu_i);
      if (j > 0) chain.add_rate(id(i, j), id(i, j - 1), e_servers * mu_e);
    }
  }
  chain.freeze();
  return chain;
}

// ---------------------------------------------------------------------------
// Block-tridiagonal direct solver.

TEST(BlockSolver, MatchesGthOnBirthDeath) {
  const SparseCtmc chain = mm1_chain(50, 0.8, 1.0);
  std::vector<std::uint32_t> level_of(50);
  for (std::size_t s = 0; s < 50; ++s) {
    level_of[s] = static_cast<std::uint32_t>(s);
  }
  const Vector exact = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  StationarySolveInfo info;
  const Vector block = block_tridiagonal_stationary(
      chain.rate_matrix(), chain.exit_rates(), level_of, &info);
  EXPECT_LT(info.residual, 1e-12);
  for (std::size_t s = 0; s < 50; ++s) {
    EXPECT_NEAR(block[s], exact[s], 1e-12) << "state " << s;
  }
}

TEST(BlockSolver, MatchesGthOnTwoDimensionalChain) {
  const SparseCtmc chain = grid_chain();
  const Vector exact = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  const Vector block = block_tridiagonal_stationary(
      chain.rate_matrix(), chain.exit_rates(), grid_levels(), nullptr);
  for (std::size_t s = 0; s < exact.size(); ++s) {
    EXPECT_NEAR(block[s], exact[s], 1e-13) << "state " << s;
  }
}

/// Random level-structured irreducible chain, `trial` choosing the level
/// count: a guaranteed up/down ladder through each level's first state,
/// every state tied to its level's first state both ways, plus random
/// extra edges.
SparseCtmc random_level_chain(std::mt19937_64& rng, int trial,
                              std::vector<std::uint32_t>* level_of) {
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  std::uniform_int_distribution<int> coin(0, 1);
  const std::size_t num_levels = 2 + trial % 5;
  std::vector<std::size_t> first;
  level_of->clear();
  for (std::size_t l = 0; l < num_levels; ++l) {
    const std::size_t size = 1 + rng() % 3;
    first.push_back(level_of->size());
    for (std::size_t b = 0; b < size; ++b) {
      level_of->push_back(static_cast<std::uint32_t>(l));
    }
  }
  const std::size_t n = level_of->size();
  SparseCtmc chain(n);
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    chain.add_rate(first[l], first[l + 1], rate(rng));
    chain.add_rate(first[l + 1], first[l], rate(rng));
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t anchor = first[(*level_of)[s]];
    if (s != anchor) {
      chain.add_rate(s, anchor, rate(rng));
      chain.add_rate(anchor, s, rate(rng));
    }
    for (std::size_t t = 0; t < n; ++t) {
      const long diff = static_cast<long>((*level_of)[s]) -
                        static_cast<long>((*level_of)[t]);
      if (s == t || diff < -1 || diff > 1) continue;
      if (coin(rng) == 1) chain.add_rate(s, t, rate(rng));
    }
  }
  chain.freeze();
  return chain;
}

TEST(BlockSolver, RandomizedChainsAgreeWithGth) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain = random_level_chain(rng, trial, &level_of);
    const Vector exact =
        gth_stationary(chain.rate_matrix(), chain.exit_rates());
    const Vector block = block_tridiagonal_stationary(
        chain.rate_matrix(), chain.exit_rates(), level_of, nullptr);
    for (std::size_t s = 0; s < level_of.size(); ++s) {
      EXPECT_NEAR(block[s], exact[s], 1e-11)
          << "trial " << trial << " state " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise reference for the level fold: block_tridiagonal_stationary must
// reproduce the dense fold it replaced EXACTLY — the same pivots, factors
// and updates in the same order — so exact-chain results stay
// byte-identical. The reference below is that dense fold, verbatim apart
// from names and the dropped input checks: an LU over a b x b Matrix that
// skips zeros, and a backward sweep holding every censored level block
// densely.

class DenseFoldFactor {
 public:
  explicit DenseFoldFactor(Matrix g) {
    const std::size_t n = g.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    std::vector<std::size_t> urow;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(g(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(g(r, col));
        if (cand > best) {
          best = cand;
          pivot = r;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) std::swap(g(pivot, c), g(col, c));
        std::swap(perm_[pivot], perm_[col]);
      }
      const double inv_diag = 1.0 / g(col, col);
      urow.clear();
      for (std::size_t c = col + 1; c < n; ++c) {
        if (g(col, c) != 0.0) urow.push_back(c);
      }
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = g(r, col) * inv_diag;
        g(r, col) = factor;
        if (factor == 0.0) continue;
        for (const std::size_t c : urow) g(r, c) -= factor * g(col, c);
      }
    }
    diag_.resize(n);
    l_ptr_.push_back(0);
    u_ptr_.push_back(0);
    for (std::size_t r = 0; r < n; ++r) {
      diag_[r] = g(r, r);
      for (std::size_t c = r + 1; c < n; ++c) {
        if (g(r, c) != 0.0) u_.push_back({c, g(r, c)});
        if (g(c, r) != 0.0) l_.push_back({c, g(c, r)});
      }
      u_ptr_.push_back(u_.size());
      l_ptr_.push_back(l_.size());
    }
  }

  /// Solves G x = b.
  Vector solve(const Vector& b) const {
    const std::size_t n = diag_.size();
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[r] = b[perm_[r]];
    for (std::size_t k = 0; k < n; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      for (std::size_t e = l_ptr_[k]; e < l_ptr_[k + 1]; ++e) {
        x[l_[e].first] -= l_[e].second * xk;
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = x[k];
      for (std::size_t e = u_ptr_[k]; e < u_ptr_[k + 1]; ++e) {
        acc -= u_[e].second * x[u_[e].first];
      }
      x[k] = acc / diag_[k];
    }
    return x;
  }

  /// Solves G^T x = b.
  Vector solve_transposed(const Vector& b) const {
    const std::size_t n = diag_.size();
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
      const double yk = y[k] / diag_[k];
      y[k] = yk;
      if (yk == 0.0) continue;
      for (std::size_t e = u_ptr_[k]; e < u_ptr_[k + 1]; ++e) {
        y[u_[e].first] -= u_[e].second * yk;
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = y[k];
      for (std::size_t e = l_ptr_[k]; e < l_ptr_[k + 1]; ++e) {
        acc -= l_[e].second * y[l_[e].first];
      }
      y[k] = acc;
    }
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[perm_[r]] = y[r];
    return x;
  }

 private:
  std::vector<std::size_t> perm_;
  Vector diag_;
  std::vector<std::size_t> l_ptr_, u_ptr_;
  std::vector<std::pair<std::size_t, double>> l_, u_;
};

/// DenseFoldFactor over (-S)^T with the fold-densified indices last.
struct DenseLevelFactor {
  std::vector<std::size_t> order;
  std::optional<DenseFoldFactor> factor;

  Vector permute(const Vector& v) const {
    Vector p(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) p[i] = v[order[i]];
    return p;
  }
  Vector unpermute(const Vector& p) const {
    Vector v(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) v[order[i]] = p[i];
    return v;
  }
  Vector solve(const Vector& v) const {
    return unpermute(factor->solve(permute(v)));
  }
  Vector solve_transposed(const Vector& v) const {
    return unpermute(factor->solve_transposed(permute(v)));
  }
};

Vector reference_block_stationary(const CsrMatrix& rates,
                                  const Vector& exit_rates,
                                  const std::vector<std::uint32_t>& level) {
  const std::size_t n = rates.rows();
  const std::size_t num_levels =
      static_cast<std::size_t>(*std::max_element(level.begin(), level.end())) +
      1;
  std::vector<std::size_t> local(n);
  std::vector<std::vector<std::size_t>> states(num_levels);
  for (std::size_t s = 0; s < n; ++s) {
    local[s] = states[level[s]].size();
    states[level[s]].push_back(s);
  }
  const auto level_block = [&](std::size_t l) {
    const std::size_t b = states[l].size();
    Matrix a(b, b);
    for (std::size_t r = 0; r < b; ++r) {
      const std::size_t u = states[l][r];
      a(r, r) = -exit_rates[u];
      for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
        const std::size_t to = rates.row_cols(u)[k];
        if (level[to] == l) a(r, local[to]) += rates.row_values(u)[k];
      }
    }
    return a;
  };
  std::vector<std::optional<DenseLevelFactor>> up_factor(num_levels - 1);
  Matrix s_block = level_block(num_levels - 1);
  std::vector<bool> fold_marks(states[num_levels - 1].size(), false);
  Vector rhs;
  for (std::size_t l = num_levels - 1; l-- > 0;) {
    const std::size_t b = states[l].size();
    const std::size_t b_up = states[l + 1].size();
    DenseLevelFactor lf;
    for (std::size_t i = 0; i < b_up; ++i) {
      if (!fold_marks[i]) lf.order.push_back(i);
    }
    for (std::size_t i = 0; i < b_up; ++i) {
      if (fold_marks[i]) lf.order.push_back(i);
    }
    Matrix g(b_up, b_up);
    for (std::size_t r = 0; r < b_up; ++r) {
      for (std::size_t c = 0; c < b_up; ++c) {
        g(r, c) = -s_block(lf.order[c], lf.order[r]);
      }
    }
    lf.factor.emplace(std::move(g));
    up_factor[l] = std::move(lf);
    std::vector<std::vector<std::pair<std::size_t, double>>> c_cols(b);
    for (std::size_t r2 = 0; r2 < b_up; ++r2) {
      const std::size_t u2 = states[l + 1][r2];
      for (std::size_t k = 0; k < rates.row_nnz(u2); ++k) {
        const std::size_t to = rates.row_cols(u2)[k];
        if (level[to] == l) {
          c_cols[local[to]].emplace_back(r2, rates.row_values(u2)[k]);
        }
      }
    }
    Matrix next = level_block(l);
    for (std::size_t c = 0; c < b; ++c) {
      if (c_cols[c].empty()) continue;
      rhs.assign(b_up, 0.0);
      for (const auto& [r2, w] : c_cols[c]) rhs[r2] += w;
      const Vector x = up_factor[l]->solve_transposed(rhs);
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t u = states[l][i];
        double acc = 0.0;
        for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
          const std::size_t to = rates.row_cols(u)[k];
          if (level[to] == l + 1) {
            acc += rates.row_values(u)[k] * x[local[to]];
          }
        }
        next(i, c) += acc;
      }
    }
    s_block = std::move(next);
    fold_marks.assign(b, false);
    for (std::size_t c = 0; c < b; ++c) {
      if (!c_cols[c].empty()) fold_marks[c] = true;
    }
  }
  const std::size_t b0 = states[0].size();
  for (std::size_t r = 0; r < b0; ++r) {
    for (std::size_t c = 0; c < b0; ++c) {
      if (r != c && s_block(r, c) < 0.0) s_block(r, c) = 0.0;
    }
  }
  Vector level_pi = gth_stationary(std::move(s_block));
  Vector pi(n, 0.0);
  for (std::size_t r = 0; r < b0; ++r) pi[states[0][r]] = level_pi[r];
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    rhs.assign(states[l + 1].size(), 0.0);
    for (std::size_t i = 0; i < states[l].size(); ++i) {
      const std::size_t u = states[l][i];
      for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
        const std::size_t to = rates.row_cols(u)[k];
        if (level[to] == l + 1) {
          rhs[local[to]] += level_pi[i] * rates.row_values(u)[k];
        }
      }
    }
    level_pi = up_factor[l]->solve(rhs);
    for (double& v : level_pi) {
      if (v < 0.0) v = 0.0;
    }
    for (std::size_t c = 0; c < states[l + 1].size(); ++c) {
      pi[states[l + 1][c]] = level_pi[c];
    }
  }
  normalize_probability(pi);
  return pi;
}

/// A random level-structured irreducible chain with `num_levels` levels of
/// 1..max_block states each, built around each level's first state (the
/// anchor): an up/down ladder through the anchors, every state tied to its
/// anchor both ways, random within-level hops, and up- and
/// down-transitions from random states, the down ones landing on a random
/// subset of the level below so the fold densifies anywhere from one
/// column to all of them. About a fifth of the other states are tight:
/// their only exits are two hops within their level, one onto a
/// down-target, never onto a tight state. Their columns of (-S)^T are
/// exactly dominant (IF's states at j = jmax have the same two exits,
/// i +- 1), so once the elimination has updated such a column it meets a
/// pivot tie that roundoff can tip into a row swap.
SparseCtmc wide_level_chain(std::mt19937_64& rng, std::size_t num_levels,
                            std::size_t max_block,
                            std::vector<std::uint32_t>* level_of) {
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::size_t> first;
  level_of->clear();
  for (std::size_t l = 0; l < num_levels; ++l) {
    const std::size_t size = 1 + rng() % max_block;
    first.push_back(level_of->size());
    for (std::size_t b = 0; b < size; ++b) {
      level_of->push_back(static_cast<std::uint32_t>(l));
    }
  }
  first.push_back(level_of->size());
  const std::size_t n = level_of->size();
  std::vector<bool> tight(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    tight[s] = s != first[(*level_of)[s]] && unit(rng) < 0.2;
  }
  // Down-transitions into level l land on its first targets(l) states.
  std::vector<double> target_share(num_levels);
  for (double& share : target_share) share = unit(rng);
  const auto targets = [&](std::size_t l) {
    return 1 + static_cast<std::size_t>(
                   target_share[l] *
                   static_cast<double>(first[l + 1] - first[l] - 1));
  };
  SparseCtmc chain(n);
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    chain.add_rate(first[l], first[l + 1], rate(rng));
    chain.add_rate(first[l + 1], first[l], rate(rng));
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t l = (*level_of)[s];
    const std::size_t anchor = first[l];
    if (s == anchor) continue;
    chain.add_rate(anchor, s, rate(rng));
    if (tight[s]) {
      const std::size_t size = first[l + 1] - first[l];
      for (const std::size_t pick :
           {rng() % targets(l), rng() % size}) {
        const std::size_t to = first[l] + pick;
        chain.add_rate(s, to == s || tight[to] ? anchor : to, rate(rng));
      }
      continue;
    }
    chain.add_rate(s, anchor, rate(rng));
    for (std::size_t t = first[l] + 1; t < first[l + 1]; ++t) {
      if (t != s && unit(rng) < 0.08) chain.add_rate(s, t, rate(rng));
    }
    if (l + 1 < num_levels && unit(rng) < 0.3) {
      const std::size_t b_up = first[l + 2] - first[l + 1];
      chain.add_rate(s, first[l + 1] + rng() % b_up, rate(rng));
    }
    if (l > 0 && unit(rng) < 0.5) {
      chain.add_rate(s, first[l - 1] + rng() % targets(l - 1), rate(rng));
    }
  }
  chain.freeze();
  return chain;
}

/// A strip: `levels` levels of `width` states j = 0..width-1 in a line,
/// with hops both ways along the line and one level up from every state.
/// Only the states j >= marked go down, onto state j % marked of the level
/// below, so the fold densifies the first `marked` columns of each level.
/// Those states have no way down: their censored rows are conservative,
/// which makes their columns of (-S)^T tight in the trailing dense block,
/// and the line makes the leading sparse rows meet ties too; roundoff
/// tips some of both into row swaps.
SparseCtmc strip_chain(std::mt19937_64& rng, std::size_t levels,
                       std::size_t width, std::size_t marked,
                       std::vector<std::uint32_t>* level_of) {
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  const std::size_t n = levels * width;
  SparseCtmc chain(n);
  level_of->assign(n, 0);
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t s = l * width + j;
      (*level_of)[s] = static_cast<std::uint32_t>(l);
      if (j + 1 < width) chain.add_rate(s, s + 1, rate(rng));
      if (j > 0) chain.add_rate(s, s - 1, rate(rng));
      if (l + 1 < levels) chain.add_rate(s, s + width, rate(rng));
      if (l > 0 && j >= marked) {
        chain.add_rate(s, (l - 1) * width + j % marked, rate(rng));
      }
    }
  }
  chain.freeze();
  return chain;
}

void expect_fold_matches_dense_reference(
    const SparseCtmc& chain, const std::vector<std::uint32_t>& level_of) {
  const Vector ref = reference_block_stationary(
      chain.rate_matrix(), chain.exit_rates(), level_of);
  const Vector pi = block_tridiagonal_stationary(
      chain.rate_matrix(), chain.exit_rates(), level_of, nullptr);
  ASSERT_EQ(ref.size(), pi.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    EXPECT_EQ(ref[s], pi[s]) << "state " << s;  // bitwise, not NEAR
  }
}

TEST(BlockSolver, SparseFoldBitwiseMatchesDenseReference) {
  {
    std::mt19937_64 rng(20260808);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(::testing::Message() << "small trial " << trial);
      std::vector<std::uint32_t> level_of;
      const SparseCtmc chain = random_level_chain(rng, trial, &level_of);
      expect_fold_matches_dense_reference(chain, level_of);
    }
  }
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(::testing::Message() << "wide trial " << trial);
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain =
        wide_level_chain(rng, 2 + trial % 7, 8 + trial % 53, &level_of);
    expect_fold_matches_dense_reference(chain, level_of);
  }
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(::testing::Message() << "strip trial " << trial);
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain = strip_chain(rng, 3 + trial % 4, 6 + trial % 30,
                                         2 + trial % 5, &level_of);
    expect_fold_matches_dense_reference(chain, level_of);
  }
  // IF folds its (N_I, N_E) chain along N_E and EF along N_I; at j = jmax
  // IF's states with i >= k only hop within the level.
  for (const bool inelastic_first : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "IF=" << inelastic_first);
    const long imax = 39, jmax = 39;
    const SparseCtmc chain = two_class_chain(imax, jmax, inelastic_first);
    std::vector<std::uint32_t> level_of(chain.num_states());
    for (std::size_t s = 0; s < level_of.size(); ++s) {
      const auto nj = static_cast<std::size_t>(jmax + 1);
      level_of[s] = static_cast<std::uint32_t>(inelastic_first ? s % nj
                                                               : s / nj);
    }
    expect_fold_matches_dense_reference(chain, level_of);
  }
}

TEST(BlockSolver, RejectsNonAdjacentLevelJumps) {
  SparseCtmc chain(3);
  chain.add_rate(0, 2, 1.0);  // jumps level 0 -> 2
  chain.add_rate(2, 1, 1.0);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  EXPECT_THROW(block_tridiagonal_stationary(chain.rate_matrix(),
                                            chain.exit_rates(), {0, 1, 2},
                                            nullptr),
               Error);
}

TEST(BlockSolver, RejectsLevelWithNoDownTransitions) {
  // 0 -> 1 only: level 1 cannot descend, so level 0 is transient and the
  // censored blocks are singular; the solver must refuse loudly (the exact
  // backend then solves the chain's closed class on this error).
  SparseCtmc chain(2);
  chain.add_rate(0, 1, 1.0);
  chain.freeze();
  EXPECT_THROW(block_tridiagonal_stationary(chain.rate_matrix(),
                                            chain.exit_rates(), {0, 1},
                                            nullptr),
               Error);
}

TEST(BlockSolver, RejectsEmptyLevel) {
  SparseCtmc chain(2);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  // Levels {0, 2} skip level 1.
  EXPECT_THROW(block_tridiagonal_stationary(chain.rate_matrix(),
                                            chain.exit_rates(), {0, 2},
                                            nullptr),
               Error);
}

TEST(BlockSolver, FlopEstimateCountsFoldDensifiedColumns) {
  // Grid chain: levels 0..3 each have all 3 states hit by down-transitions
  // (m = 3); level 4 has nothing above it (m = 0). Estimate =
  // b0^3 + sum_{l=1..3} (b_l m_l^2 + m_l^3) = 27 + 3 * (27 + 27) = 189.
  const SparseCtmc grid = grid_chain();
  EXPECT_DOUBLE_EQ(
      block_solver_flop_estimate(grid.rate_matrix(), grid_levels()), 189.0);
  // A birth-death line has one down-target per level: the estimate grows
  // linearly in levels, so auto keeps picking the direct solver there.
  const SparseCtmc line = mm1_chain(41, 0.7, 1.0);
  std::vector<std::uint32_t> levels(41);
  for (std::size_t s = 0; s < levels.size(); ++s) {
    levels[s] = static_cast<std::uint32_t>(s);
  }
  EXPECT_DOUBLE_EQ(block_solver_flop_estimate(line.rate_matrix(), levels),
                   1.0 + 39.0 * 2.0);
}

// ---------------------------------------------------------------------------
// Nested-dissection GTH elimination on grid chains.

/// An ni x nj grid chain (state i * nj + j) with random rates on every
/// 4-neighbour edge.
SparseCtmc random_grid_chain(std::size_t ni, std::size_t nj,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  SparseCtmc chain(ni * nj);
  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j < nj; ++j) {
      const std::size_t s = i * nj + j;
      if (i > 0) chain.add_rate(s, s - nj, rate(rng));
      if (j > 0) chain.add_rate(s, s - 1, rate(rng));
      if (j + 1 < nj) chain.add_rate(s, s + 1, rate(rng));
      if (i + 1 < ni) chain.add_rate(s, s + nj, rate(rng));
    }
  }
  chain.freeze();
  return chain;
}

TEST(NestedDissection, MatchesGthOnGridsOfEveryShape) {
  // Single states and lines, a 2 x 2, grids that are one leaf (2 x 4) or
  // just over it (3 x 3), and non-square grids deep enough to refactor
  // subtrees during back-substitution (61 x 21).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 37}, {29, 1}, {2, 2}, {2, 4}, {3, 3}, {5, 3}, {9, 13},
      {61, 21}};
  std::uint64_t seed = 1;
  for (const auto& [ni, nj] : shapes) {
    SCOPED_TRACE(::testing::Message() << ni << " x " << nj);
    const SparseCtmc chain = random_grid_chain(ni, nj, seed++);
    const Vector exact =
        gth_stationary(chain.rate_matrix(), chain.exit_rates());
    StationarySolveInfo info;
    const Vector nd = nested_dissection_stationary(
        chain.rate_matrix(), chain.exit_rates(), ni, nj, &info);
    EXPECT_LT(info.residual, 1e-14);
    ASSERT_EQ(nd.size(), exact.size());
    for (std::size_t s = 0; s < exact.size(); ++s) {
      EXPECT_NEAR(nd[s], exact[s], 1e-12 * exact[s]) << "state " << s;
    }
  }
}

TEST(NestedDissection, RepeatedSolvesAreBitwiseIdentical) {
  // 64 x 64 cuts the tree well below the depth that keeps its factors, so
  // the back-substitution refactors subtrees; a solve depends only on the
  // rates, never on the scratch state a previous solve left behind.
  const SparseCtmc chain = random_grid_chain(64, 64, 99);
  const Vector first = nested_dissection_stationary(
      chain.rate_matrix(), chain.exit_rates(), 64, 64);
  const Vector second = nested_dissection_stationary(
      chain.rate_matrix(), chain.exit_rates(), 64, 64);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t s = 0; s < first.size(); ++s) {
    ASSERT_EQ(first[s], second[s]) << "state " << s;
  }
}

TEST(NestedDissection, ZeroPivotThrowsNamedError) {
  // 0 <-> 1 is closed and 2 -> 1 is transient. The 1 x 3 grid is a single
  // leaf eliminated in order 0, 1, 2: once 0 is gone, state 1 has no rate
  // to state 2. Dense GTH (which eliminates from the last state) copes.
  SparseCtmc chain(3);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 0, 2.0);
  chain.add_rate(2, 1, 1.0);
  chain.freeze();
  const Vector exact = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  EXPECT_NEAR(exact[2], 0.0, 1e-15);
  try {
    nested_dissection_stationary(chain.rate_matrix(), chain.exit_rates(), 1,
                                 3);
    FAIL() << "expected a zero-pivot error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("zero GTH pivot at state (0, 1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(NestedDissection, RejectsTransitionsBetweenNonNeighbours) {
  SparseCtmc chain(4);  // 2 x 2 grid
  chain.add_rate(0, 3, 1.0);  // diagonal
  chain.add_rate(3, 0, 1.0);
  chain.freeze();
  EXPECT_THROW(nested_dissection_stationary(chain.rate_matrix(),
                                            chain.exit_rates(), 2, 2),
               Error);
  // Wrapping from the end of one grid row to the start of the next.
  SparseCtmc wrap(4);
  wrap.add_rate(1, 2, 1.0);
  wrap.add_rate(2, 1, 1.0);
  wrap.freeze();
  EXPECT_THROW(nested_dissection_stationary(wrap.rate_matrix(),
                                            wrap.exit_rates(), 2, 2),
               Error);
}

TEST(NestedDissection, CostCountsTheDenseFronts) {
  // A 2 x 4 grid is one leaf with no boundary: 7 pivots, pivot k updates
  // the (7-k)^2 later entries and sums and scales its 7-k rates (196 in
  // all), and back-substitution reads the 28 packed factor entries.
  EXPECT_EQ(nested_dissection_cost(2, 4), 196.0 + 28.0);
  // O(n^1.5): quadrupling the states multiplies the work by about 8.
  const double small = nested_dissection_cost(99, 99);
  const double large = nested_dissection_cost(198, 198);
  EXPECT_GT(large / small, 6.0);
  EXPECT_LT(large / small, 10.0);
}

}  // namespace
}  // namespace esched
