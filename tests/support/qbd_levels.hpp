// Level and phase marginals of a solved QBD, computed from its boundary
// vectors and R, for tests that compare a solution against a reference
// chain level by level.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "qbd/qbd.hpp"

namespace esched {

/// P(level == l) for any l >= 0: pi_l 1, with pi_{L+n} = pi_L R^n beyond
/// the boundary levels.
double qbd_level_probability(const QbdSolution& sol, std::size_t level);

/// Marginal phase distribution aggregated over all levels: the boundary
/// levels below L plus the tail pi_L (I - R)^{-1}.
Vector qbd_phase_marginal(const QbdSolution& sol);

}  // namespace esched
