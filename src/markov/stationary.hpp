// Stationary distribution solvers for finite CTMCs.
//
// Three algorithms with different size/robustness trade-offs:
//  - GTH elimination: O(n^3), no subtractions (numerically exact for
//    probabilities); the backend uses it for chains of at most 500 states.
//  - Gauss-Seidel/SOR on the balance equations: sparse, O(nnz) per sweep,
//    for truncated 2-D chains without usable structure.
//  - Block elimination, direct: the block-tridiagonal fold
//    (markov/block_solver.hpp), O(levels * block^3), for level-structured
//    chains, and nested dissection (markov/nested_dissection.hpp),
//    O(n^1.5), for chains on a 2-D grid.
//
// The exact-CTMC backend (core/exact_ctmc.hpp) picks among them by chain
// size and structure; there is no option to force one. These functions are
// also the references tests compare the backend's results against. Each
// takes the generator as an off-diagonal rate matrix plus exit rates
// (SparseCtmc::rate_matrix() and exit_rates() of a frozen chain).
#pragma once

#include <string>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"

namespace esched {

/// Result of a stationary solve.
struct StationarySolveInfo {
  int iterations = 0;     // 0 for the direct (GTH / block) solvers
  double residual = 0.0;  // max |pi Q| entry at exit
  bool converged = false;
  /// Which solver actually ran ("gth", "sor", "block"); filled by the
  /// exact-CTMC backend, which picks the solver itself, and empty when a
  /// solver was invoked directly.
  std::string method;
};

/// GTH (Grassmann-Taksar-Heyman) elimination on a dense generator. The
/// chain must be irreducible. Returns the stationary probability vector.
Vector gth_stationary(Matrix generator);

/// The same on a sparse generator (off-diagonal rate matrix plus implied
/// diagonal -exit_rates[s]), densified first.
Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates);

/// Gauss-Seidel / SOR iteration on the global balance equations of a sparse
/// CTMC. `omega` in (0, 2); omega = 1 is plain Gauss-Seidel. Iterates until
/// the residual max|pi Q| drops below `tol` or `max_iters` sweeps elapse.
/// Each sweep visits the states in a level schedule built once per call
/// (states of one level share no edge), which reproduces the ascending
/// Gauss-Seidel sweep bitwise — same iterates, iteration count and
/// residual — while letting consecutive updates overlap.
Vector sor_stationary(const CsrMatrix& rates, const Vector& exit_rates,
                      double tol = 1e-12, int max_iters = 20000,
                      double omega = 1.0, StationarySolveInfo* info = nullptr);

/// Residual max_s |(pi Q)_s| — a direct check that `pi` satisfies balance.
double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi);

}  // namespace esched
