// Instruments for checking samplers by simulation: raw moments of a stream
// and an unbiased uniform integer draw for randomized test instances.
#pragma once

#include <cstdint>

#include "rng/xoshiro.hpp"

namespace esched {

/// Accumulates raw moments E[X], E[X^2], E[X^3] of a stream — used to
/// validate busy-period moment formulas and phase-type fits by simulation.
class MomentAccumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  /// n-th raw moment estimate, n in {1, 2, 3}.
  double raw_moment(int n) const;

 private:
  std::uint64_t count_ = 0;
  double sum1_ = 0.0;
  double sum2_ = 0.0;
  double sum3_ = 0.0;
};

/// Uniform integer in [0, n).
std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n);

}  // namespace esched
