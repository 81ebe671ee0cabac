#include "sim/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace esched {

Trace generate_trace(const SystemParams& params, double horizon,
                     std::uint64_t seed) {
  params.validate();
  ESCHED_CHECK(horizon > 0.0, "horizon must be positive");
  Trace trace;
  trace.horizon = horizon;
  Xoshiro256 rng(seed);
  // Independent streams per class keep the trace of one class unchanged
  // when the other class's rates change.
  Xoshiro256 rng_i = rng.stream(1);
  Xoshiro256 rng_e = rng.stream(2);

  if (params.lambda_i > 0.0) {
    double t = exponential(rng_i, params.lambda_i);
    while (t <= horizon) {
      trace.arrivals.push_back({t, false, exponential(rng_i, params.mu_i)});
      t += exponential(rng_i, params.lambda_i);
    }
  }
  if (params.lambda_e > 0.0) {
    double t = exponential(rng_e, params.lambda_e);
    while (t <= horizon) {
      trace.arrivals.push_back({t, true, exponential(rng_e, params.mu_e)});
      t += exponential(rng_e, params.lambda_e);
    }
  }
  std::sort(trace.arrivals.begin(), trace.arrivals.end(),
            [](const TraceArrival& a, const TraceArrival& b) {
              return a.time < b.time;
            });
  return trace;
}

Trace initial_batch_trace(const std::vector<TraceArrival>& jobs) {
  Trace trace;
  trace.arrivals = jobs;
  for (auto& a : trace.arrivals) {
    ESCHED_CHECK(a.time == 0.0, "initial batch jobs must arrive at time 0");
    ESCHED_CHECK(a.size > 0.0, "job sizes must be positive");
  }
  trace.horizon = 0.0;
  return trace;
}

}  // namespace esched
