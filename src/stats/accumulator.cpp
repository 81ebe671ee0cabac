#include "stats/accumulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace esched {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
  ESCHED_CHECK(count_ > 0, "mean of empty accumulator");
  return mean_;
}

double Accumulator::variance() const {
  ESCHED_CHECK(count_ >= 2, "variance needs at least two observations");
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  ESCHED_CHECK(count_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  ESCHED_CHECK(count_ > 0, "max of empty accumulator");
  return max_;
}

}  // namespace esched
