#include "support/sampling.hpp"

#include "common/error.hpp"

namespace esched {

void MomentAccumulator::add(double x) {
  ++count_;
  sum1_ += x;
  sum2_ += x * x;
  sum3_ += x * x * x;
}

double MomentAccumulator::raw_moment(int n) const {
  ESCHED_CHECK(count_ > 0, "raw moment of empty accumulator");
  ESCHED_CHECK(n >= 1 && n <= 3, "raw_moment supports n in {1,2,3}");
  const double denom = static_cast<double>(count_);
  switch (n) {
    case 1: return sum1_ / denom;
    case 2: return sum2_ / denom;
    default: return sum3_ / denom;
  }
}

std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) {
  ESCHED_CHECK(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t draw;
  do {
    draw = rng();
  } while (draw >= limit);
  return draw % n;
}

}  // namespace esched
