// Nested-dissection GTH elimination for CTMCs on a 2-D grid.
//
// The truncated (N_I, N_E) chain only moves between 4-neighbours of an
// ni x nj grid (a 5-point stencil). GTH state reduction (Grassmann, Taksar
// & Heyman 1985) eliminates a state p by adding a(r,p) a(p,c) / s_p to
// every remaining rate a(r,c), where s_p sums p's rates to the remaining
// states; it subtracts nothing in ANY elimination order. This solver
// eliminates in nested-dissection order (George 1973): split the grid by
// its middle line across the longer side, order both halves recursively,
// then the line. The work is O(n^1.5) where the block-tridiagonal fold
// costs O(levels * block^3) on chains that fill both of its axes.
//
// The elimination is multifrontal. Each node of the dissection tree owns a
// dense row-major front: its pivots (the separator line, or every state of
// a small leaf region) followed by its boundary (the ring of states just
// outside its region, all on ancestor separators). A node assembles its
// pivots' rates, adds its children's update matrices, runs a right-looking
// GTH over the pivots and folds them into the boundary block with one
// GEMM-shaped pass. Every step only adds nonnegative products, so the
// kernel is subtraction-free like dense GTH (and cannot reuse an LU). The
// boundary block is the update the node hands its parent.
//
// Memory stays near the input's size: in-edges are read from the four grid
// neighbours' rows (no transpose), and only the top levels of the tree keep
// their factor columns. Back-substitution refactors each lower subtree when
// it reaches it; a subtree's elimination reads only its own entries, so the
// refactor is bitwise identical to the first pass.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "markov/stationary.hpp"

namespace esched {

/// Multiply-adds of nested_dissection_stationary on an ni x nj grid: the
/// factor pass, the subtree refactors and the back-substitution. The fronts
/// are dense, so the count depends on the grid shape only; it comes from an
/// allocation-free walk of the same dissection the solve runs.
double nested_dissection_cost(std::size_t ni, std::size_t nj);

/// Stationary distribution of an irreducible CTMC whose states are the
/// cells of an ni x nj grid (state i * nj + j) and whose transitions only
/// join 4-neighbours, given as an off-diagonal rate matrix plus exit rates.
/// A transition between non-neighbours throws esched::Error, as does a zero
/// GTH pivot (a state with no path to the states still to be eliminated,
/// i.e. a reducible chain). `info` (optional) reports the measured
/// residual, like the other direct solvers.
Vector nested_dissection_stationary(const CsrMatrix& rates,
                                    const Vector& exit_rates, std::size_t ni,
                                    std::size_t nj,
                                    StationarySolveInfo* info = nullptr);

}  // namespace esched
