#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "obs/metrics.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sim/fcfs.hpp"
#include "stats/accumulator.hpp"
#include "stats/time_average.hpp"

namespace esched {

SimResult simulate(const SystemParams& params, const AllocationPolicy& policy,
                   const SimOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  params.validate();
  ESCHED_CHECK(params.lambda_i + params.lambda_e > 0.0,
               "simulation requires some arrivals");
  ESCHED_CHECK(options.batches >= 2, "need at least two batches");
  ESCHED_CHECK(options.num_jobs >= 2 * static_cast<std::uint64_t>(
                                          options.batches),
               "num_jobs must give two observations per batch-means batch");

  Xoshiro256 master(options.seed);
  Xoshiro256 rng_arrival_i = master.stream(1);
  Xoshiro256 rng_arrival_e = master.stream(2);
  Xoshiro256 rng_size_i = master.stream(3);
  Xoshiro256 rng_size_e = master.stream(4);

  const auto sample_size_i = [&]() {
    return options.size_dist_i != nullptr
               ? options.size_dist_i->sample(rng_size_i)
               : exponential(rng_size_i, params.mu_i);
  };
  const auto sample_size_e = [&]() {
    return options.size_dist_e != nullptr
               ? options.size_dist_e->sample(rng_size_e)
               : exponential(rng_size_e, params.mu_e);
  };

  sim_detail::JobRing queue_i;
  sim_detail::JobRing queue_e;
  sim_detail::ClassService svc_i;
  sim_detail::ClassService svc_e;
  const double elastic_cap = params.elastic_cap_or_k();
  double now = 0.0;
  double next_arrival_i =
      params.lambda_i > 0.0 ? exponential(rng_arrival_i, params.lambda_i)
                            : kInf;
  double next_arrival_e =
      params.lambda_e > 0.0 ? exponential(rng_arrival_e, params.lambda_e)
                            : kInf;

  TimeAverage avg_ni, avg_nj, avg_util;
  avg_ni.start(0.0, 0.0);
  avg_nj.start(0.0, 0.0);
  avg_util.start(0.0, 0.0);
  double work = 0.0;          // current total remaining work
  double work_area = 0.0;     // integral of W(t) dt after warmup
  double work_area_t0 = 0.0;  // start of the measured interval

  // Exactly num_jobs completions are measured (warmup ones are dropped and
  // the loop stops at warmup + num_jobs), so the overall batch-means
  // boundaries are known up front and the overall stream is folded into
  // its batches as it arrives: the same split as batch_means_ci, the last
  // batch taking the remainder. Per-class counts are not known up front,
  // so those streams are stored.
  const auto batches = static_cast<std::uint64_t>(options.batches);
  const std::uint64_t batch_size = options.num_jobs / batches;
  std::vector<Accumulator> batch_acc(batches);
  std::uint64_t measured = 0;
  std::vector<double> rt_i, rt_e;
  std::uint64_t completed = 0;  // total completions (incl. warmup)
  bool warm = options.warmup_jobs == 0;

  const std::uint64_t target =
      options.warmup_jobs + options.num_jobs;
  const std::uint64_t max_events = target * 64 + 1024;
  std::uint64_t events = 0;

  while (completed < target) {
    ESCHED_CHECK(++events <= max_events,
                 "event budget exceeded; system is likely unstable");
    const State state{static_cast<long>(queue_i.size()),
                      static_cast<long>(queue_e.size())};
    if (options.check_invariants) policy.check_feasible(state, params);
    const Allocation alloc = policy.allocate(state, params);

    sim_detail::serve_fcfs(queue_i, alloc.inelastic, 1.0, svc_i);
    sim_detail::serve_fcfs(queue_e, alloc.elastic, elastic_cap, svc_e);
    const double total_rate = svc_i.total_rate + svc_e.total_rate;

    const double next_arrival = std::min(next_arrival_i, next_arrival_e);
    const double dt_completion = std::min(svc_i.soonest_dt, svc_e.soonest_dt);
    const double dt_arrival = next_arrival - now;
    ESCHED_ASSERT(dt_arrival >= 0.0 || dt_completion < kInf,
                  "simulator has nothing to do");
    const bool completion_next = dt_completion <= dt_arrival;
    const double dt = completion_next ? dt_completion : dt_arrival;

    // Advance the clock, depleting served jobs linearly.
    const double t_next = now + dt;
    avg_ni.advance(t_next);
    avg_nj.advance(t_next);
    avg_util.update(now, total_rate / static_cast<double>(params.k));
    avg_util.advance(t_next);
    if (warm) work_area += dt * (work - 0.5 * total_rate * dt);
    work = std::max(0.0, work - total_rate * dt);
    sim_detail::deplete(queue_i, svc_i, dt);
    sim_detail::deplete(queue_e, svc_e, dt);
    now = t_next;

    if (completion_next) {
      const bool inelastic_completes = svc_i.soonest_dt <= svc_e.soonest_dt;
      sim_detail::JobRing& queue = inelastic_completes ? queue_i : queue_e;
      const std::size_t idx = inelastic_completes ? svc_i.soonest_index
                                                  : svc_e.soonest_index;
      const double response = now - queue[idx].arrival_time;
      queue.erase(idx);
      ++completed;
      if (warm) {
        batch_acc[std::min(measured++ / batch_size, batches - 1)].add(
            response);
        (inelastic_completes ? rt_i : rt_e).push_back(response);
        Histogram* hist = inelastic_completes ? options.response_hist_i
                                              : options.response_hist_e;
        if (hist != nullptr) hist->add(response);
      } else if (completed >= options.warmup_jobs) {
        // End of warmup: restart the time averages here.
        warm = true;
        avg_ni.reset_at(now);
        avg_nj.reset_at(now);
        avg_util.reset_at(now);
        work_area = 0.0;
        work_area_t0 = now;
      }
    } else {
      const bool inelastic_arrives = next_arrival_i <= next_arrival_e;
      const double size = inelastic_arrives ? sample_size_i() : sample_size_e();
      (inelastic_arrives ? queue_i : queue_e).push_back({now, size});
      work += size;
      if (inelastic_arrives) {
        next_arrival_i = now + exponential(rng_arrival_i, params.lambda_i);
      } else {
        next_arrival_e = now + exponential(rng_arrival_e, params.lambda_e);
      }
    }
    avg_ni.update(now, static_cast<double>(queue_i.size()));
    avg_nj.update(now, static_cast<double>(queue_e.size()));
  }

  SimResult result;
  result.sim_time = now;
  result.mean_jobs_i = avg_ni.average();
  result.mean_jobs_e = avg_nj.average();
  result.utilization = avg_util.average();
  result.mean_work = work_area / (now - work_area_t0);
  std::vector<double> batch_means;
  batch_means.reserve(batches);
  for (const Accumulator& acc : batch_acc) batch_means.push_back(acc.mean());
  result.mean_response_time = replication_ci(batch_means, options.confidence);
  result.inelastic.completed = rt_i.size();
  result.elastic.completed = rt_e.size();
  if (rt_i.size() >= static_cast<std::size_t>(2 * options.batches)) {
    result.inelastic.response_time =
        batch_means_ci(rt_i, options.batches, options.confidence);
  }
  if (rt_e.size() >= static_cast<std::size_t>(2 * options.batches)) {
    result.elastic.response_time =
        batch_means_ci(rt_e, options.batches, options.confidence);
  }

  // Observability, recorded once per call so the event loop itself stays
  // untouched (and so does the RNG stream). Throughput histograms make
  // "did the simulator get slower?" answerable from --metrics-out alone.
  {
    MetricsRegistry& m = global_metrics();
    static Counter& events_counter = m.counter("sim.events");
    static Counter& jobs_counter = m.counter("sim.jobs.completed");
    static LogHistogram& jobs_per_second =
        m.histogram("sim.jobs_per_second");
    static LogHistogram& events_per_second =
        m.histogram("sim.events_per_second");
    events_counter.add(events);
    jobs_counter.add(completed);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (wall > 0.0) {
      jobs_per_second.record(static_cast<double>(completed) / wall);
      events_per_second.record(static_cast<double>(events) / wall);
    }
  }
  return result;
}

}  // namespace esched
