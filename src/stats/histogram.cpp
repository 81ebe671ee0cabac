#include "stats/histogram.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esched {

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(num_bins)),
      counts_(num_bins, 0) {
  ESCHED_CHECK(hi > lo, "histogram range must be non-empty");
  ESCHED_CHECK(num_bins > 0, "histogram needs at least one bin");
}

std::uint64_t Histogram::bin_count(std::size_t bin) const {
  ESCHED_CHECK(bin < counts_.size(), "bin index out of range");
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  ESCHED_CHECK(bin < counts_.size(), "bin index out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::quantile(double q) const {
  ESCHED_CHECK(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
  ESCHED_CHECK(total_ > 0, "quantile of empty histogram");
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double next = cum + static_cast<double>(counts_[b]);
    if (next >= target && counts_[b] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[b]);
      return lo_ + (static_cast<double>(b) + frac) * width_;
    }
    cum = next;
  }
  return hi_;
}

}  // namespace esched
