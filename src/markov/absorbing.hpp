// Absorbing-chain analysis: expected time spent in each transient state
// before absorption, and expected accumulated rewards.
//
// This powers the Theorem 6 counterexample: with no arrivals the job-count
// chain is absorbing at (0,0), and the mean response time equals
// E[∫ N(t) dt] / (initial number of jobs) — an accumulated reward with
// reward rate N(state).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "markov/ctmc.hpp"

namespace esched {

/// Expected total time spent in each state before absorption, starting from
/// the distribution `initial` (which must be supported on transient states).
/// States with zero exit rate are treated as absorbing and receive
/// occupancy 0. Solved exactly via dense LU: x^T (-Q_TT) = initial^T.
Vector expected_occupancy(const SparseCtmc& chain, const Vector& initial);

/// Expected accumulated reward before absorption: sum_s occupancy(s) *
/// reward_rate(s).
double expected_accumulated_reward(const SparseCtmc& chain,
                                   const Vector& initial,
                                   const Vector& reward_rate);

}  // namespace esched
