// Stationary distribution solvers for finite CTMCs.
//
// All of them are direct, with different size/structure trade-offs:
//  - GTH elimination: O(n^3), no subtractions (numerically exact for
//    probabilities); the backend uses it for chains of at most 500 states.
//  - Block elimination: the block-tridiagonal fold
//    (markov/block_solver.hpp), O(levels * block^3) at worst, for
//    level-structured chains, and nested dissection
//    (markov/nested_dissection.hpp), O(n^1.5), for chains on a 2-D grid.
//
// The exact-CTMC backend (core/exact_ctmc.hpp) picks among them by chain
// size and structure; there is no option to force one. A reducible chain
// makes every elimination throw; the backend then solves its closed class
// (closed_classes below) by the same route: GTH up to 500 states, else the
// block method. These functions are also the references tests compare the
// backend's results against. Each takes the generator as an off-diagonal
// rate matrix plus exit rates (SparseCtmc::rate_matrix() and exit_rates()
// of a frozen chain).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"

namespace esched {

/// Result of a stationary solve.
struct StationarySolveInfo {
  double residual = 0.0;  // max |pi Q| entry of the result
  /// Which solver actually ran ("gth", "block"); filled by the
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

/// Residual max_s |(pi Q)_s| — a direct check that `pi` satisfies balance.
double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi);

/// The closed communicating classes of the chain whose off-diagonal rate
/// matrix is `rates`: the strongly connected components (Tarjan 1972,
/// iterative) that no transition leaves. Each class lists its states in
/// ascending order, and the classes come in the order of their smallest
/// state. An irreducible chain has exactly one, every state; a finite
/// chain has at least one.
std::vector<std::vector<std::size_t>> closed_classes(const CsrMatrix& rates);

}  // namespace esched
