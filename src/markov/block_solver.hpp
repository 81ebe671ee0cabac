// Block-tridiagonal direct stationary solver for level-structured CTMCs.
//
// The truncated (N_I, N_E) chains — including the phase-augmented chain —
// only move between adjacent levels of N_I (and the exponential chain
// also between adjacent levels of N_E), so grouping states by level
// yields a block-tridiagonal generator
//
//     [ A_0  B_0            ]
//     [ C_1  A_1  B_1       ]
//     [      C_2  A_2  ...  ]
//
// which GTH-style block elimination solves *exactly* instead of by dense
// O(n^3) / O(n^2) elimination: censoring the chain on levels 0..l gives the
// backward recursion
//
//     S_{L-1} = A_{L-1},   S_l = A_l + R_l C_{l+1},
//     R_l     = B_l (-S_{l+1})^{-1},
//
// where R_l(r, c) is the expected number of visits to state c of level l+1
// (before returning to level l+1... censored below l+1) per unit time spent
// in state r of level l — in particular R_l >= 0 elementwise, so the
// forward accumulation pi_{l+1} = pi_l R_l is subtraction-free like scalar
// GTH. pi_0 solves the censored generator S_0 by dense GTH; the R factors
// then roll the distribution back up level by level.
//
// The fold is sparse. S_l differs from the sparse A_l only in the m_l
// columns of the level-l states that receive down-transitions, so each
// level is held as A_l's rows plus those m_l dense columns, and (-S)^T is
// factored by an LU that touches only stored entries: about b * m^2 work
// per level of b states (see block_solver_flop_estimate) and O(b * m)
// scratch, plus the kept factors. Only S_0 is formed densely, for GTH.
// The LU pivots, scales and updates exactly as a dense elimination that
// skips zeros, so its results are bitwise those of the dense fold.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/csr.hpp"
#include "markov/stationary.hpp"

namespace esched {

/// Solves the stationary distribution of a level-structured CTMC given as
/// an off-diagonal rate matrix plus exit rates. `level_of[s]` assigns each
/// state to a level; levels must be contiguous (0..L-1 all non-empty) and
/// every transition must stay within a level or move to an adjacent one —
/// violations throw esched::Error naming the offending structure, as does
/// a level with no down-transitions (a reducible chain). `info` (optional)
/// reports the measured residual.
Vector block_tridiagonal_stationary(const CsrMatrix& rates,
                                    const Vector& exit_rates,
                                    const std::vector<std::uint32_t>& level_of,
                                    StationarySolveInfo* info = nullptr);

/// Estimated floating-point work of block_tridiagonal_stationary on this
/// chain. The elimination is only cheap when the fold densifies few
/// columns: per interior level the factorization costs roughly
/// b_l * m_l^2 (updates into the m_l fold-densified rows) plus m_l^3 (the
/// trailing dense block), where m_l counts the level-l states that receive
/// down-transitions. Chains whose every state is a down-target (m ~ b)
/// degrade to dense O(levels * block^3) work; the exact backend compares
/// this estimate across level axes and with nested dissection's count.
double block_solver_flop_estimate(const CsrMatrix& rates,
                                  const std::vector<std::uint32_t>& level_of);

}  // namespace esched
