#include "queueing/mm1.hpp"

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace esched {

MM1::MM1(double lambda_in, double mu_in) : lambda(lambda_in), mu(mu_in) {
  ESCHED_CHECK(lambda >= 0.0, "arrival rate must be non-negative");
  ESCHED_CHECK(mu > 0.0, "service rate must be positive");
}

double MM1::mean_response_time() const {
  ESCHED_CHECK(stable(), "M/M/1 metrics require lambda < mu");
  return 1.0 / (mu - lambda);
}

double MM1::mean_jobs() const {
  ESCHED_CHECK(stable(), "M/M/1 metrics require lambda < mu");
  const double rho = utilization();
  return rho / (1.0 - rho);
}

Moments3 MM1::busy_period_moments() const {
  ESCHED_CHECK(stable(), "busy period moments require lambda < mu");
  const double gap = mu - lambda;
  Moments3 m;
  m.m1 = 1.0 / gap;
  m.m2 = 2.0 * mu / (gap * gap * gap);
  m.m3 = 6.0 * mu * (mu + lambda) / (gap * gap * gap * gap * gap);
  return m;
}

}  // namespace esched
