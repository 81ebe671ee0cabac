// Time-weighted average of a piecewise-constant (or piecewise-linear)
// process — used for E[N] and E[W] estimates from the simulator.
#pragma once

#include "common/error.hpp"

namespace esched {

/// Integrates a piecewise-constant process over time and reports its
/// time-average. Feed it (time, new_value) at every change point.
class TimeAverage {
 public:
  /// Starts the process at `t0` with value `v0`.
  void start(double t0, double v0);

  /// Records that the process changed to `value` at time `t` (t must be
  /// non-decreasing).
  void update(double t, double value) {
    ESCHED_CHECK(started_, "TimeAverage::start must be called first");
    ESCHED_CHECK(t >= last_t_, "time must be non-decreasing");
    area_ += value_ * (t - last_t_);
    last_t_ = t;
    value_ = value;
  }

  /// Advances the clock to `t` without changing the value.
  void advance(double t) { update(t, value_); }

  /// Time-average of the process over [warmup_end, last_t]. `warmup_end`
  /// observations are discarded by calling reset_at().
  double average() const;

  /// Discards all accumulated area, restarting the average at time `t` with
  /// the current value (used to drop the warmup transient).
  void reset_at(double t);

  double elapsed() const { return last_t_ - start_t_; }

 private:
  bool started_ = false;
  double start_t_ = 0.0;
  double last_t_ = 0.0;
  double value_ = 0.0;
  double area_ = 0.0;
};

}  // namespace esched
