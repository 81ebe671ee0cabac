#include "markov/absorbing.hpp"

#include "common/error.hpp"
#include "linalg/lu.hpp"

namespace esched {

Vector expected_occupancy(const SparseCtmc& chain, const Vector& initial) {
  const std::size_t n = chain.num_states();
  ESCHED_CHECK(initial.size() == n, "initial distribution dimension mismatch");

  // Identify transient states (positive exit rate) and build the dense
  // negated transient sub-generator.
  std::vector<std::size_t> transient;
  std::vector<std::size_t> index_of(n, n);  // n = "not transient"
  for (std::size_t s = 0; s < n; ++s) {
    if (chain.exit_rate(s) > 0.0) {
      index_of[s] = transient.size();
      transient.push_back(s);
    } else {
      ESCHED_CHECK(initial[s] == 0.0,
                   "initial mass on an absorbing state is not supported");
    }
  }
  const std::size_t m = transient.size();
  Vector occupancy(n, 0.0);
  if (m == 0) return occupancy;

  Matrix neg_qtt(m, m);
  for (std::size_t ti = 0; ti < m; ++ti) {
    const std::size_t s = transient[ti];
    neg_qtt(ti, ti) = chain.exit_rate(s);
    for (const auto& t : chain.transitions_from(s)) {
      if (index_of[t.to] != n) neg_qtt(ti, index_of[t.to]) -= t.rate;
    }
  }
  Vector alpha(m);
  for (std::size_t ti = 0; ti < m; ++ti) alpha[ti] = initial[transient[ti]];

  // x^T (-Q_TT) = alpha^T  <=>  (-Q_TT)^T x = alpha.
  const Vector x = LuFactorization(std::move(neg_qtt)).solve_transposed(alpha);
  for (std::size_t ti = 0; ti < m; ++ti) {
    ESCHED_ASSERT(x[ti] > -1e-9, "negative expected occupancy");
    occupancy[transient[ti]] = x[ti];
  }
  return occupancy;
}

double expected_accumulated_reward(const SparseCtmc& chain,
                                   const Vector& initial,
                                   const Vector& reward_rate) {
  ESCHED_CHECK(reward_rate.size() == chain.num_states(),
               "reward dimension mismatch");
  const Vector occupancy = expected_occupancy(chain, initial);
  return dot(occupancy, reward_rate);
}

}  // namespace esched
