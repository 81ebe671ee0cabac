#include "sim/coupled.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "sim/fcfs.hpp"

namespace esched {

WorkPath::WorkPath(std::vector<WorkSample> samples)
    : samples_(std::move(samples)) {
  ESCHED_CHECK(!samples_.empty(), "work path must have at least one sample");
  for (std::size_t n = 1; n < samples_.size(); ++n) {
    ESCHED_CHECK(samples_[n].time >= samples_[n - 1].time,
                 "work path samples must be time-ordered");
  }
}

std::size_t WorkPath::segment_for(double t) const {
  // Last sample with time <= t.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](double value, const WorkSample& s) { return value < s.time; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>(it - samples_.begin()) - 1;
}

double WorkPath::total_work_at(double t) const {
  const WorkSample& s = samples_[segment_for(t)];
  const double dt = std::max(0.0, t - s.time);
  return std::max(0.0, s.total_work - s.work_rate * dt);
}

double WorkPath::inelastic_work_at(double t) const {
  const WorkSample& s = samples_[segment_for(t)];
  const double dt = std::max(0.0, t - s.time);
  return std::max(0.0, s.inelastic_work - s.inelastic_rate * dt);
}

WorkPath run_on_trace(const Trace& trace, const SystemParams& params,
                      const AllocationPolicy& policy) {
  params.validate();
  sim_detail::JobRing queue_i;
  sim_detail::JobRing queue_e;
  sim_detail::ClassService svc_i;
  sim_detail::ClassService svc_e;
  const double elastic_cap = params.elastic_cap_or_k();
  double now = 0.0;
  double work_i = 0.0;
  double work_e = 0.0;
  std::size_t next_arrival = 0;

  const auto admit = [&]() {
    const TraceArrival& a = trace.arrivals[next_arrival++];
    (a.elastic ? queue_e : queue_i).push_back({a.time, a.size});
    (a.elastic ? work_e : work_i) += a.size;
  };
  // Admit any time-0 arrivals before the first sample.
  while (next_arrival < trace.arrivals.size() &&
         trace.arrivals[next_arrival].time <= 0.0) {
    admit();
  }

  std::vector<WorkSample> samples;
  const auto record = [&](double rate_i, double rate_e) {
    samples.push_back({now, work_i + work_e, work_i, rate_i + rate_e,
                       rate_i});
  };

  for (;;) {
    const State state{static_cast<long>(queue_i.size()),
                      static_cast<long>(queue_e.size())};
    policy.check_feasible(state, params);
    const Allocation alloc = policy.allocate(state, params);

    // Per-job rates, FCFS within class (class P's service order).
    sim_detail::serve_fcfs(queue_i, alloc.inelastic, 1.0, svc_i);
    sim_detail::serve_fcfs(queue_e, alloc.elastic, elastic_cap, svc_e);
    record(svc_i.total_rate, svc_e.total_rate);

    const double soonest_dt = std::min(svc_i.soonest_dt, svc_e.soonest_dt);
    const double arrival_time = next_arrival < trace.arrivals.size()
                                    ? trace.arrivals[next_arrival].time
                                    : kInf;
    const double dt_arrival = arrival_time - now;
    if (soonest_dt == kInf && arrival_time == kInf) break;  // system empty

    const bool completion_next = soonest_dt <= dt_arrival;
    const double dt = completion_next ? soonest_dt : dt_arrival;

    sim_detail::deplete(queue_i, svc_i, dt);
    sim_detail::deplete(queue_e, svc_e, dt);
    work_i = std::max(0.0, work_i - svc_i.total_rate * dt);
    work_e = std::max(0.0, work_e - svc_e.total_rate * dt);
    now += dt;

    if (completion_next) {
      // Ties complete the inelastic job.
      if (svc_i.soonest_dt <= svc_e.soonest_dt) {
        queue_i.erase(svc_i.soonest_index);
      } else {
        queue_e.erase(svc_e.soonest_index);
      }
    } else {
      admit();
    }
  }
  record(0.0, 0.0);
  return WorkPath(std::move(samples));
}

DominanceReport check_dominance(const WorkPath& dominant,
                                const WorkPath& other) {
  // Checkpoints: all breakpoints of both paths plus segment midpoints.
  std::vector<double> times;
  const auto harvest = [&](const WorkPath& path) {
    const auto& ss = path.samples();
    for (std::size_t n = 0; n < ss.size(); ++n) {
      times.push_back(ss[n].time);
      if (n + 1 < ss.size()) {
        times.push_back(0.5 * (ss[n].time + ss[n + 1].time));
      }
    }
  };
  harvest(dominant);
  harvest(other);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  DominanceReport report;
  report.num_checkpoints = times.size();
  for (double t : times) {
    report.max_total_violation =
        std::max(report.max_total_violation,
                 dominant.total_work_at(t) - other.total_work_at(t));
    report.max_inelastic_violation =
        std::max(report.max_inelastic_violation,
                 dominant.inelastic_work_at(t) - other.inelastic_work_at(t));
  }
  report.max_total_violation = std::max(0.0, report.max_total_violation);
  report.max_inelastic_violation =
      std::max(0.0, report.max_inelastic_violation);
  return report;
}

}  // namespace esched
