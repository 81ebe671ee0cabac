// M/G/1 closed forms (Pollaczek-Khinchine).
//
// Extension beyond the paper's exponential-size model: under EF the
// elastic class is a single-server (speed-k) queue regardless of the size
// distribution, so with phase-type elastic sizes its mean response time is
// exactly M/G/1. This module provides the PK formulas for arbitrary first
// two service moments and a PhaseType convenience overload.
//
// A test oracle: the only closed-form check of phase-type elastic sizes
// (test_mg1). No shipped binary calls it.
#pragma once

#include "phase/phase_type.hpp"

namespace esched {

/// M/G/1 queue: Poisson(lambda) arrivals, i.i.d. service with raw moments
/// (s1, s2). Utilization rho = lambda * s1 must be < 1 for the metrics.
struct MG1 {
  double lambda = 0.0;
  double s1 = 0.0;  ///< E[S]
  double s2 = 0.0;  ///< E[S^2]

  MG1(double lambda_in, double s1_in, double s2_in);

  /// Service distribution given as a PhaseType, optionally scaled by a
  /// server speed: serving distribution S/speed.
  MG1(double lambda_in, const PhaseType& service, double speed = 1.0);

  double utilization() const { return lambda * s1; }
  bool stable() const { return utilization() < 1.0; }

  /// PK mean waiting time: E[W] = lambda s2 / (2 (1 - rho)).
  double mean_wait() const;

  /// E[T] = E[W] + E[S].
  double mean_response_time() const;

  /// E[N] via Little's law.
  double mean_jobs() const;
};

}  // namespace esched
