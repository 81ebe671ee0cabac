#include "stats/time_average.hpp"

#include "common/error.hpp"

namespace esched {

void TimeAverage::start(double t0, double v0) {
  started_ = true;
  start_t_ = last_t_ = t0;
  value_ = v0;
  area_ = 0.0;
}

double TimeAverage::average() const {
  ESCHED_CHECK(started_, "TimeAverage::start must be called first");
  const double span = last_t_ - start_t_;
  ESCHED_CHECK(span > 0.0, "time average over empty interval");
  return area_ / span;
}

void TimeAverage::reset_at(double t) {
  ESCHED_CHECK(started_, "TimeAverage::start must be called first");
  advance(t);
  start_t_ = t;
  area_ = 0.0;
}

}  // namespace esched
