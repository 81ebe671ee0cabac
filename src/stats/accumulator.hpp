// Streaming mean/variance accumulator.
#pragma once

#include <cstdint>

namespace esched {

/// Numerically stable (Welford) accumulator for mean/variance/min/max of a
/// stream of observations.
class Accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; requires count() >= 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace esched
