// Exact (truncated) 2-D CTMC solver for arbitrary allocation policies.
//
// This is the brute-force baseline the paper contrasts with in §5 (the
// MDP-style truncation of [7]): build the full generator of the chain
// (N_I(t), N_E(t)) on {0..imax} x {0..jmax} for ANY stationary policy,
// solve the stationary distribution, and read off E[N] / E[T]. It serves
// two purposes: validating the busy-period-transformation analysis, and
// running optimality sweeps over whole policy families (§4).
#pragma once

#include <cstddef>

#include "core/params.hpp"
#include "core/policy.hpp"
#include "markov/stationary.hpp"
#include "phase/phase_type.hpp"

namespace esched {

/// Options for the truncated solve. The stationary solver is not an
/// option, and every route is direct: chains of up to 500 states take
/// dense GTH and larger ones the block method, in the cheapest ordering
/// the chain offers. Both chains offer levels along N_I and along N_E; the
/// exponential (N_I, N_E) chain also offers nested dissection of its grid.
/// An elimination throws only on a reducible chain (a policy that idles
/// with jobs present); the solve then puts all mass on the chain's one
/// closed class and solves that class's own chain by the same route (GTH
/// up to 500 states, else the cheaper level axis; the class is not a full
/// grid, so no nested dissection). A chain with several closed classes has
/// no unique stationary law and throws esched::Error. Tests that compare
/// solvers call the reference solvers (markov/stationary.hpp,
/// markov/block_solver.hpp, markov/nested_dissection.hpp) on the chain
/// directly.
struct ExactCtmcOptions {
  long imax = 120;  ///< inelastic truncation level
  long jmax = 120;  ///< elastic truncation level
};

/// Results of the truncated stationary solve.
struct ExactCtmcResult {
  double mean_jobs_i = 0.0;
  double mean_jobs_e = 0.0;
  double mean_response_time = 0.0;
  double mean_response_time_i = 0.0;
  double mean_response_time_e = 0.0;
  /// Stationary mass on the truncation boundary rows i == imax or
  /// j == jmax; a large value means the truncation is too tight.
  double boundary_mass = 0.0;
  std::size_t num_states = 0;
  /// Quality of the stationary solve: the measured residual, and in
  /// solve_info.method the solver that actually ran ("gth" or "block").
  StationarySolveInfo solve_info;
};

/// Solves the truncated chain for `policy` at `params`: builds the
/// policy's generator in one pass and solves it. Requires rho < 1
/// (otherwise the truncated result is meaningless and this throws),
/// truncation levels >= 1 and some arrivals.
///
/// The block method's level assignments are by N_I (level = i) and by N_E
/// (level = j). The solve compares the flop estimate of each axis's fold
/// under the policy's rates (block_solver_flop_estimate) with the exact
/// count of nested dissection (nested_dissection_cost) and runs the
/// cheapest. Under IF an elastic completion leaves at most k states of an
/// N_E level, while every state of an N_I level has an inelastic
/// completion, so IF-type chains fold along N_E and EF along N_I. The fold
/// holds each level as its sparse rows plus the columns of those few
/// down-targets, so such a fold costs about b * m^2 per level of b states
/// with m down-targets, not b^3 (see markov/block_solver.hpp). FairShare
/// and Cap2 move both i and j in every state, fill both folds, and take
/// nested dissection. Ties between the axes keep the longer axis (more,
/// smaller blocks).
ExactCtmcResult solve_exact_ctmc(const SystemParams& params,
                                 const AllocationPolicy& policy,
                                 const ExactCtmcOptions& options = {});

/// Exact truncated solve with phase-type *inelastic* job sizes (elastic
/// sizes stay Exp(mu_E)), by state augmentation: the chain tracks
/// (c_1..c_m, w, j) where c_s counts in-service inelastic jobs in phase s
/// of `size_dist_i` (which must already be scaled to mean 1/mu_I, see
/// SizeDistSpec::compile), w counts waiting inelastic jobs, and j counts
/// elastic jobs. Only the reachable component is enumerated (BFS from the
/// empty system), arrivals are dropped at the i/j truncation boundary, and
/// boundary_mass reports the stationary mass sitting on it — the same
/// truncation-mass accounting as the exponential chain. The chain is
/// level-structured both in i = sum(c) + w and in j, so the block solver
/// folds along whichever axis is cheaper under the policy's rates: under
/// IF an elastic completion lands on few states of a j level, so IF chains
/// fold along j, and EF chains along i.
///
/// Exactness requires that the phase counts be a sufficient statistic,
/// which holds when (a) the policy's inelastic allocation is integral in
/// every state (one whole server per served job, the FCFS semantics of the
/// simulator) and (b) preemption is all-or-nothing: the allocation never
/// drops strictly between 0 and the number of jobs already in service
/// (jobs pause holding their phase and all resume together — EF's shape;
/// IF never preempts). Violations throw esched::Error naming the policy;
/// use the simulation backend for such policies. The inputs are checked as
/// in solve_exact_ctmc, and `size_dist_i` may have at most 16 phases.
ExactCtmcResult solve_exact_ctmc_ph(const SystemParams& params,
                                    const AllocationPolicy& policy,
                                    const PhaseType& size_dist_i,
                                    const ExactCtmcOptions& options = {});

/// Truncation level at which a geometric tail of ratio rho holds at most
/// `epsilon` mass — a reasonable default for both dimensions. Clamped to
/// [16, 400].
long suggested_truncation(double rho, double epsilon = 1e-10);

}  // namespace esched
