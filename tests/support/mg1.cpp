#include "support/mg1.hpp"

#include "common/error.hpp"

namespace esched {

MG1::MG1(double lambda_in, double s1_in, double s2_in)
    : lambda(lambda_in), s1(s1_in), s2(s2_in) {
  ESCHED_CHECK(lambda >= 0.0, "arrival rate must be non-negative");
  ESCHED_CHECK(s1 > 0.0, "mean service time must be positive");
  ESCHED_CHECK(s2 >= s1 * s1, "E[S^2] must be at least E[S]^2");
}

MG1::MG1(double lambda_in, const PhaseType& service, double speed)
    : MG1(lambda_in, service.raw_moment(1) / speed,
          service.raw_moment(2) / (speed * speed)) {
  ESCHED_CHECK(speed > 0.0, "speed must be positive");
}

double MG1::mean_wait() const {
  ESCHED_CHECK(stable(), "M/G/1 metrics require rho < 1");
  return lambda * s2 / (2.0 * (1.0 - utilization()));
}

double MG1::mean_response_time() const { return mean_wait() + s1; }

double MG1::mean_jobs() const { return lambda * mean_response_time(); }

}  // namespace esched
