// Closed-form M/M/1 results.
//
// Under Elastic-First the elastic class is exactly an M/M/1 with arrival
// rate lambda_E and service rate k*mu_E (paper §5.2, Observation 1), and
// both chains' busy-period transformations need the first three moments of
// an M/M/1 busy period.
#pragma once

#include "markov/birth_death.hpp"

namespace esched {

/// M/M/1 queue with Poisson(lambda) arrivals and Exp(mu) service.
struct MM1 {
  double lambda = 0.0;
  double mu = 0.0;

  MM1(double lambda_in, double mu_in);

  double utilization() const { return lambda / mu; }
  bool stable() const { return lambda < mu; }

  /// Mean response time E[T] = 1/(mu - lambda).
  double mean_response_time() const;

  /// Mean number in system E[N] = rho/(1-rho).
  double mean_jobs() const;

  /// First three raw moments of the busy period (the time from an arrival
  /// into an empty system until the system next empties):
  ///   m1 = 1/(mu-lambda), m2 = 2 mu/(mu-lambda)^3,
  ///   m3 = 6 mu (mu+lambda)/(mu-lambda)^5.
  /// Derived from the busy-period LST functional equation; validated in
  /// tests against birth-death first-passage recursions and simulation.
  Moments3 busy_period_moments() const;
};

}  // namespace esched
