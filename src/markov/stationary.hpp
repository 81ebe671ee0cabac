// Stationary distribution solvers for finite CTMCs.
//
// Three algorithms with different size/robustness trade-offs:
//  - GTH elimination: O(n^3), no subtractions (numerically exact for
//    probabilities), the right choice for n up to ~1-2k states.
//  - Gauss-Seidel/SOR on the balance equations: sparse, O(nnz) per sweep,
//    for truncated 2-D chains without usable structure.
//  - Block elimination, direct: the block-tridiagonal fold
//    (markov/block_solver.hpp), O(levels * block^3), for level-structured
//    chains, and nested dissection (markov/nested_dissection.hpp),
//    O(n^1.5), for chains on a 2-D grid.
//
// The exact-CTMC backend (core/exact_ctmc.hpp) picks among them by chain
// size and structure; there is no option to force one. These functions are
// also the references tests compare the backend's results against.
//
// SOR takes either a SparseCtmc or the raw (rate matrix, exit rates)
// pair; the latter lets callers that build rates into a reusable CSR
// scratch (ExactCtmcBatch) solve without constructing a chain object.
#pragma once

#include <string>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "markov/ctmc.hpp"

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

/// Convenience overloads densifying a sparse generator (off-diagonal rate
/// matrix plus implied diagonal -exit_rates[s]).
Vector gth_stationary(const SparseCtmc& chain);
Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates);

/// Gauss-Seidel / SOR iteration on the global balance equations of a sparse
/// CTMC. `omega` in (0, 2); omega = 1 is plain Gauss-Seidel. Iterates until
/// the residual max|pi Q| drops below `tol` or `max_iters` sweeps elapse.
/// Each sweep visits the states in a level schedule built once per call
/// (states of one level share no edge), which reproduces the ascending
/// Gauss-Seidel sweep bitwise — same iterates, iteration count and
/// residual — while letting consecutive updates overlap.
Vector sor_stationary(const SparseCtmc& chain, double tol = 1e-12,
                      int max_iters = 20000, double omega = 1.0,
                      StationarySolveInfo* info = nullptr);
Vector sor_stationary(const CsrMatrix& rates, const Vector& exit_rates,
                      double tol = 1e-12, int max_iters = 20000,
                      double omega = 1.0, StationarySolveInfo* info = nullptr);

/// Residual max_s |(pi Q)_s| — a direct check that `pi` satisfies balance.
double stationary_residual(const SparseCtmc& chain, const Vector& pi);
double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi);

}  // namespace esched
