// Quasi-birth-death (QBD) processes and their matrix-analytic solution.
//
// A QBD is a CTMC whose states are (level, phase) pairs, with transitions
// only between adjacent levels. The paper's busy-period transformation
// (§5.2, Appendix D) turns the 2D-infinite EF and IF chains into exactly
// this shape: the level is the queue length of the deprioritized class and
// the phase tracks the prioritized class / busy-period stage. Following
// §5.3 (refs [34, 43, 44]), the stationary distribution of the repeating
// portion is matrix-geometric, pi_{L+n} = pi_L R^n, where R solves
//   A0 + R A1 + R^2 A2 = 0.
// R is the minimal such solution. The solver reaches it through G, the
// minimal solution of A2 + A1 G + A0 G^2 = 0, by logarithmic reduction
// (Latouche & Ramaswami 1993), which converges quadratically, and then sets
// R = A0 (-A1 - A0 G)^{-1}.
//
// The solver supports level-dependent boundary blocks for levels
// 0..first_repeating-1 (the EF chain needs k of them: inelastic service
// rates min(i,k) mu_I differ below level k).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace esched {

/// A QBD specification. All matrices hold *non-negative off-diagonal
/// rates*; diagonals are derived by the solver from row-sum conservation.
/// Levels 0..first_repeating-1 use the boundary blocks; levels >=
/// first_repeating all use the repeating blocks.
struct QbdProcess {
  std::size_t num_phases = 0;
  std::size_t first_repeating = 1;  // must be >= 1

  /// up[l]: rates level l -> l+1, for l in [0, first_repeating).
  std::vector<Matrix> up;
  /// local[l]: within-level phase-change rates at level l (off-diagonal).
  std::vector<Matrix> local;
  /// down[l]: rates level l -> l-1, for l in [0, first_repeating);
  /// down[0] must be all zeros (there is no level below 0).
  std::vector<Matrix> down;

  Matrix rep_up;     // A0: rates level l -> l+1 for l >= first_repeating
  Matrix rep_local;  // off-diagonal part of A1
  Matrix rep_down;   // A2: rates level l -> l-1 for l >= first_repeating

  /// Validates shapes and sign constraints; throws esched::Error on issues.
  void validate() const;
};

/// Stationary solution of a QBD.
struct QbdSolution {
  /// pi_0..pi_L where L = first_repeating; levels beyond L follow
  /// pi_{L+n} = pi_L R^n.
  std::vector<Vector> boundary;
  Matrix r;

  std::size_t num_phases = 0;
  std::size_t first_repeating = 0;

  int r_iterations = 0;     // logarithmic-reduction steps
  double r_residual = 0.0;  // max-abs of A0 + R A1 + R^2 A2

  /// E[level] — the stationary mean queue length of the level class.
  double mean_level = 0.0;
};

/// Solves the QBD: checks the mean drift of A0 + A1 + A2, computes R by
/// logarithmic reduction, then solves the boundary system normalized by
/// sum_l pi_l 1 = 1 (geometric tail folded in). Throws esched::Error before
/// the reduction if the process is not positive recurrent, or if it stalls.
QbdSolution solve_qbd(const QbdProcess& process);

}  // namespace esched
