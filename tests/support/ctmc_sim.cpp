#include "support/ctmc_sim.hpp"

#include <array>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/time_average.hpp"

namespace esched {

CtmcSimResult simulate_ctmc(const SystemParams& params,
                            const AllocationPolicy& policy,
                            const CtmcSimOptions& options) {
  params.validate();
  ESCHED_CHECK(options.horizon > options.warmup,
               "horizon must exceed warmup");
  ESCHED_CHECK(params.lambda_i + params.lambda_e > 0.0,
               "simulation requires some arrivals");

  Xoshiro256 rng(options.seed);
  long i = 0;
  long j = 0;
  double now = 0.0;
  TimeAverage avg_i, avg_j;
  avg_i.start(0.0, 0.0);
  avg_j.start(0.0, 0.0);
  bool warm = options.warmup == 0.0;
  CtmcSimResult result;

  while (now < options.horizon) {
    const Allocation alloc = policy.allocate({i, j}, params);
    // Four competing exponentials; the CTMC jump is a discrete race. The
    // elastic class can only use cap * j servers of its allocation.
    const std::array<double, 4> rates = {
        params.lambda_i, params.lambda_e, alloc.inelastic * params.mu_i,
        params.usable_elastic(alloc.elastic, j) * params.mu_e};
    const double total = rates[0] + rates[1] + rates[2] + rates[3];
    ESCHED_ASSERT(total > 0.0, "CTMC simulator stuck in an absorbing state");
    const double dt = exponential(rng, total);
    now += dt;
    if (!warm && now >= options.warmup) {
      warm = true;
      avg_i.reset_at(options.warmup);
      avg_j.reset_at(options.warmup);
    }
    if (now >= options.horizon) {
      // The jump lands past the horizon: the pre-event state persists up to
      // the horizon and the event itself is outside the window.
      avg_i.advance(options.horizon);
      avg_j.advance(options.horizon);
      break;
    }
    // Integrate the pre-event state up to `now` ...
    avg_i.advance(now);
    avg_j.advance(now);

    double pick = uniform_open01(rng) * total;
    if ((pick -= rates[0]) <= 0.0) {
      ++i;
    } else if ((pick -= rates[1]) <= 0.0) {
      ++j;
    } else if ((pick -= rates[2]) <= 0.0) {
      --i;
      ESCHED_ASSERT(i >= 0, "negative inelastic count");
    } else {
      --j;
      ESCHED_ASSERT(j >= 0, "negative elastic count");
    }
    // ... then register the post-event state (zero-length update).
    avg_i.update(now, static_cast<double>(i));
    avg_j.update(now, static_cast<double>(j));
    ++result.transitions;
  }

  result.mean_jobs_i = avg_i.average();
  result.mean_jobs_e = avg_j.average();
  result.mean_response_time = (result.mean_jobs_i + result.mean_jobs_e) /
                              (params.lambda_i + params.lambda_e);
  return result;
}

}  // namespace esched
