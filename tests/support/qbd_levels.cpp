#include "support/qbd_levels.hpp"

#include "common/error.hpp"
#include "linalg/lu.hpp"

namespace esched {

double qbd_level_probability(const QbdSolution& sol, std::size_t level) {
  ESCHED_CHECK(!sol.boundary.empty(), "unsolved QBD solution");
  if (level <= sol.first_repeating) return sum(sol.boundary[level]);
  Vector v = sol.boundary[sol.first_repeating];
  for (std::size_t l = sol.first_repeating; l < level; ++l) {
    v = vecmat(v, sol.r);
  }
  return sum(v);
}

Vector qbd_phase_marginal(const QbdSolution& sol) {
  ESCHED_CHECK(!sol.boundary.empty(), "unsolved QBD solution");
  const std::size_t m = sol.num_phases;
  Vector marginal(m, 0.0);
  for (std::size_t l = 0; l < sol.first_repeating; ++l) {
    for (std::size_t s = 0; s < m; ++s) marginal[s] += sol.boundary[l][s];
  }
  // Tail: pi_L (I - R)^{-1}, computed by solving x (I-R) = pi_L.
  const Matrix i_minus_r = Matrix::identity(m) - sol.r;
  const Vector tail = LuFactorization(i_minus_r.transpose())
                          .solve(sol.boundary[sol.first_repeating]);
  for (std::size_t s = 0; s < m; ++s) marginal[s] += tail[s];
  return marginal;
}

}  // namespace esched
