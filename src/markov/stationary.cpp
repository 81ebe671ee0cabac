#include "markov/stationary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/invariants.hpp"

namespace esched {

Vector gth_stationary(Matrix q) {
  // No generator-structure debug check here: the block solver feeds this
  // entry censored generators whose diagonal/row sums carry elimination
  // roundoff GTH is insensitive to. The CSR overload below checks instead.
  ESCHED_CHECK(q.rows() == q.cols(), "generator must be square");
  const std::size_t n = q.rows();
  ESCHED_CHECK(n >= 1, "generator must be non-empty");
  // GTH elimination uses only the off-diagonal (non-negative) rates and
  // performs no subtractions, so it is backward stable for probabilities.
  for (std::size_t m = n; m-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += q(m, j);
    ESCHED_CHECK(s > 0.0, "chain is reducible: state has no path down");
    for (std::size_t i = 0; i < m; ++i) q(i, m) /= s;
    for (std::size_t i = 0; i < m; ++i) {
      const double factor = q(i, m);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != i) q(i, j) += factor * q(m, j);
      }
    }
  }
  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t m = 1; m < n; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += pi[i] * q(i, m);
    pi[m] = acc;
  }
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "gth_stationary"));
  return pi;
}

Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  ESCHED_CHECK(exit_rates.size() == rates.rows(),
               "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(check_generator(rates, exit_rates, "gth_stationary"));
  Matrix q = rates.to_dense();
  for (std::size_t s = 0; s < rates.rows(); ++s) q(s, s) = -exit_rates[s];
  return gth_stationary(std::move(q));
}

namespace {

/// (pi Q)_s gathered from the transitions entering s, listed in ascending
/// source order, with the -pi[s] * exit term interleaved exactly where
/// source == s falls in that order: bitwise identical to the scatter form
/// in stationary_residual below.
template <typename Index>
double incoming_balance(std::size_t s, const Index* from, const double* rate,
                        std::size_t nnz, const Vector& exit_rates,
                        const Vector& pi) {
  double acc = 0.0;
  bool subtracted = false;
  for (std::size_t k = 0; k < nnz; ++k) {
    if (!subtracted && from[k] > s) {
      acc -= pi[s] * exit_rates[s];
      subtracted = true;
    }
    acc += pi[from[k]] * rate[k];
  }
  if (!subtracted) acc -= pi[s] * exit_rates[s];
  return acc;
}

/// The in-adjacency of a generator with its rows in Gauss-Seidel level
/// order. level(s) is 1 + the largest level of any neighbour of s (over in-
/// and out-edges) with a smaller index, or 0 when there is none; rows go
/// level by level, ascending by state inside a level. Two states of one
/// level share no edge, so when a sweep in this order updates s, every
/// smaller neighbour already holds its new value and every larger one its
/// old value, exactly as in an ascending sweep: same inputs, same
/// arithmetic, bitwise-identical iterates. The gain is that consecutive
/// updates in a level do not wait on each other's store and divide. On the
/// 2-D (i, j) chains the levels are the anti-diagonals i + j.
struct ScheduledInflow {
  std::vector<std::uint32_t> state;    // state of each row
  std::vector<std::size_t> row_ptr;    // row r is [row_ptr[r], row_ptr[r+1])
  std::vector<std::uint32_t> from;     // sources, ascending within a row
  std::vector<double> rate;

  explicit ScheduledInflow(const CsrMatrix& rates) {
    const std::size_t n = rates.rows();
    ESCHED_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
                 "SOR supports at most 2^32 - 1 states");
    // level[t] first collects 1 + the level of each smaller source u -> t,
    // then, when t's turn comes, the levels of its smaller destinations.
    std::vector<std::uint32_t> level(n, 0);
    std::uint32_t num_levels = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t* to = rates.row_cols(s);
      const std::size_t nnz = rates.row_nnz(s);
      std::uint32_t mine = level[s];
      for (std::size_t k = 0; k < nnz && to[k] < s; ++k) {
        mine = std::max(mine, level[to[k]] + 1);
      }
      level[s] = mine;
      num_levels = std::max(num_levels, mine + 1);
      for (std::size_t k = 0; k < nnz; ++k) {
        if (to[k] > s) level[to[k]] = std::max(level[to[k]], mine + 1);
      }
    }
    // Counting sort by level (stable, so ascending inside a level); level
    // is overwritten with each state's row position.
    std::vector<std::size_t> cursor(std::size_t{num_levels} + 1, 0);
    for (std::size_t s = 0; s < n; ++s) ++cursor[level[s] + 1];
    std::partial_sum(cursor.begin(), cursor.end(), cursor.begin());
    state.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      const auto row = static_cast<std::uint32_t>(cursor[level[s]]++);
      state[row] = static_cast<std::uint32_t>(s);
      level[s] = row;
    }
    const std::vector<std::uint32_t>& row_of = level;
    // Transpose into the scheduled rows; visiting sources in ascending
    // order leaves each row sorted by source.
    row_ptr.assign(n + 1, 0);
    for (std::size_t t : rates.col_idx()) ++row_ptr[row_of[t] + 1];
    std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
    from.resize(rates.nnz());
    rate.resize(rates.nnz());
    cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t* to = rates.row_cols(u);
      const double* value = rates.row_values(u);
      for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
        const std::size_t slot = cursor[row_of[to[k]]]++;
        from[slot] = static_cast<std::uint32_t>(u);
        rate[slot] = value[k];
      }
    }
  }

  /// Residual max_s |(pi Q)_s|; a max does not depend on the row order.
  double residual(const Vector& exit_rates, const Vector& pi) const {
    double worst = 0.0;
    for (std::size_t r = 0; r < state.size(); ++r) {
      const std::size_t begin = row_ptr[r];
      const double balance =
          incoming_balance(state[r], from.data() + begin, rate.data() + begin,
                           row_ptr[r + 1] - begin, exit_rates, pi);
      worst = std::max(worst, std::abs(balance));
    }
    return worst;
  }
};

}  // namespace

double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi) {
  ESCHED_CHECK(pi.size() == rates.rows(), "pi dimension mismatch");
  Vector flow(rates.rows(), 0.0);
  for (std::size_t s = 0; s < rates.rows(); ++s) {
    flow[s] -= pi[s] * exit_rates[s];
    const std::size_t* to = rates.row_cols(s);
    const double* rate = rates.row_values(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) flow[to[k]] += pi[s] * rate[k];
  }
  return max_abs(flow);
}

Vector sor_stationary(const CsrMatrix& rates, const Vector& exit_rates,
                      double tol, int max_iters, double omega,
                      StationarySolveInfo* info) {
  ESCHED_CHECK(omega > 0.0 && omega < 2.0, "SOR omega must be in (0,2)");
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  ESCHED_CHECK(exit_rates.size() == rates.rows(),
               "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(check_generator(rates, exit_rates, "sor_stationary"));
  const std::size_t n = rates.rows();
  // Built once per solve: the Gauss-Seidel update of pi[s] gathers over
  // the transitions *entering* s, and the convergence check reuses it.
  const ScheduledInflow in(rates);
  Vector pi(n, 1.0 / static_cast<double>(n));
  StationarySolveInfo local;
  for (local.iterations = 1; local.iterations <= max_iters;
       ++local.iterations) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t s = in.state[r];
      const double exit = exit_rates[s];
      if (exit == 0.0) continue;  // absorbing states keep their mass
      double inflow = 0.0;
      for (std::size_t k = in.row_ptr[r]; k < in.row_ptr[r + 1]; ++k) {
        inflow += pi[in.from[k]] * in.rate[k];
      }
      const double gs = inflow / exit;
      pi[s] = (1.0 - omega) * pi[s] + omega * gs;
    }
    normalize_probability(pi);
    // Checking the residual every sweep would double the work; every 10th
    // sweep keeps the overhead low while stopping promptly.
    if (local.iterations % 10 == 0 || local.iterations == max_iters) {
      local.residual = in.residual(exit_rates, pi);
      if (local.residual < tol) {
        local.converged = true;
        break;
      }
    }
  }
  // On non-convergence the for-loop increment leaves the counter one past
  // the last sweep actually performed; clamp so callers see the true work.
  local.iterations = std::min(local.iterations, max_iters);
  if (info != nullptr) *info = local;
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "sor_stationary"));
  return pi;
}

}  // namespace esched
