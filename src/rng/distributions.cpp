#include "rng/distributions.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esched {

double uniform_open01(Xoshiro256& rng) {
  // Take the top 53 bits for a uniform in [0,1), then reflect to (0,1].
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return 1.0 - u;
}

double uniform(Xoshiro256& rng, double lo, double hi) {
  ESCHED_CHECK(lo <= hi, "uniform bounds must satisfy lo <= hi");
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

double exponential(Xoshiro256& rng, double rate) {
  ESCHED_CHECK(rate > 0.0, "exponential rate must be positive");
  return -std::log(uniform_open01(rng)) / rate;
}

bool bernoulli(Xoshiro256& rng, double p) {
  ESCHED_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0,1]");
  return uniform_open01(rng) <= p;
}

}  // namespace esched
