// Fixed-bin histogram for response-time distributions.
#pragma once

#include <cstdint>
#include <vector>

namespace esched {

/// Uniform-bin histogram over [lo, hi) with overflow/underflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t num_bins);

  void add(double x) {
    ++total_;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    const auto bin = static_cast<std::size_t>((x - lo_) / width_);
    ++counts_[bin < counts_.size() ? bin : counts_.size() - 1];
  }

  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  /// Empirical quantile (linear interpolation within the bin); q in (0,1).
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace esched
