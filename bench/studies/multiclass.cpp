#include "studies/multiclass.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/time_average.hpp"

namespace esched {

double MultiClassParams::rho() const {
  double total = 0.0;
  for (const JobClass& c : classes) {
    total += c.lambda / (static_cast<double>(k) * c.mu);
  }
  return total;
}

void MultiClassParams::validate() const {
  ESCHED_CHECK(k >= 1, "need at least one server");
  ESCHED_CHECK(!classes.empty(), "need at least one class");
  for (const auto& c : classes) {
    ESCHED_CHECK(c.lambda >= 0.0, "arrival rates must be non-negative");
    ESCHED_CHECK(c.mu > 0.0, "size rates must be positive");
    ESCHED_CHECK(c.cap >= 1.0 && c.cap <= static_cast<double>(k),
                 "class caps must be in [1, k]");
  }
}

namespace {

struct Job {
  double arrival_time;
  double remaining;
};

}  // namespace

MultiClassSimResult simulate_multiclass(const MultiClassParams& params,
                                        const std::vector<int>& order,
                                        const MultiClassSimOptions& options) {
  params.validate();
  const std::size_t num_classes = params.classes.size();
  ESCHED_CHECK(order.size() == num_classes,
               "order must be a permutation of the classes");
  {
    std::vector<bool> seen(num_classes, false);
    for (int c : order) {
      ESCHED_CHECK(c >= 0 && static_cast<std::size_t>(c) < num_classes,
                   "order entry out of range");
      ESCHED_CHECK(!seen[static_cast<std::size_t>(c)],
                   "order repeats a class");
      seen[static_cast<std::size_t>(c)] = true;
    }
  }
  double total_lambda = 0.0;
  for (const auto& c : params.classes) total_lambda += c.lambda;
  ESCHED_CHECK(total_lambda > 0.0, "simulation requires some arrivals");

  Xoshiro256 master(options.seed);
  std::vector<Xoshiro256> rng_arrival, rng_size;
  rng_arrival.reserve(num_classes);
  rng_size.reserve(num_classes);
  for (std::size_t n = 0; n < num_classes; ++n) {
    rng_arrival.push_back(master.stream(static_cast<unsigned>(2 * n + 1)));
    rng_size.push_back(master.stream(static_cast<unsigned>(2 * n + 2)));
  }

  std::vector<std::deque<Job>> queues(num_classes);
  std::vector<double> next_arrival(num_classes, kInf);
  for (std::size_t n = 0; n < num_classes; ++n) {
    if (params.classes[n].lambda > 0.0) {
      next_arrival[n] =
          exponential(rng_arrival[n], params.classes[n].lambda);
    }
  }

  double now = 0.0;
  TimeAverage avg_util;
  avg_util.start(0.0, 0.0);
  std::vector<double> rt_all;
  std::vector<std::vector<double>> rt_class(num_classes);
  rt_all.reserve(options.num_jobs);
  std::uint64_t completed = 0;
  bool warm = options.warmup_jobs == 0;
  const std::uint64_t target = options.warmup_jobs + options.num_jobs;
  const std::uint64_t max_events = target * 64 + 1024;
  std::uint64_t events = 0;

  // Scratch: per-class vector of rates for the served FCFS prefix.
  std::vector<std::vector<double>> rates(num_classes);

  while (completed < target) {
    ESCHED_CHECK(++events <= max_events,
                 "event budget exceeded; system is likely unstable");
    // Hand servers down the priority order, FCFS within each class, each
    // job up to its class cap.
    double servers_left = static_cast<double>(params.k);
    double soonest_dt = kInf;
    std::size_t soonest_class = 0;
    std::size_t soonest_idx = 0;
    double total_rate = 0.0;
    for (std::size_t n = 0; n < num_classes; ++n) rates[n].clear();
    for (int cls : order) {
      const auto n = static_cast<std::size_t>(cls);
      const double cap = params.classes[n].cap;
      for (std::size_t idx = 0;
           idx < queues[n].size() && servers_left > 1e-12; ++idx) {
        const double rate = std::min(cap, servers_left);
        servers_left -= rate;
        rates[n].push_back(rate);
        total_rate += rate;
        const double dt = queues[n][idx].remaining / rate;
        if (dt < soonest_dt) {
          soonest_dt = dt;
          soonest_class = n;
          soonest_idx = idx;
        }
      }
    }

    double arrival_t = kInf;
    std::size_t arrival_class = 0;
    for (std::size_t n = 0; n < num_classes; ++n) {
      if (next_arrival[n] < arrival_t) {
        arrival_t = next_arrival[n];
        arrival_class = n;
      }
    }
    const double dt_arrival = arrival_t - now;
    const bool completion_next = soonest_dt <= dt_arrival;
    const double dt = completion_next ? soonest_dt : dt_arrival;

    avg_util.update(now, total_rate / static_cast<double>(params.k));
    const double t_next = now + dt;
    avg_util.advance(t_next);
    for (std::size_t n = 0; n < num_classes; ++n) {
      for (std::size_t idx = 0; idx < rates[n].size(); ++idx) {
        queues[n][idx].remaining =
            std::max(0.0, queues[n][idx].remaining - rates[n][idx] * dt);
      }
    }
    now = t_next;

    if (completion_next) {
      auto& queue = queues[soonest_class];
      const double response = now - queue[soonest_idx].arrival_time;
      queue.erase(queue.begin() + static_cast<long>(soonest_idx));
      ++completed;
      if (warm) {
        rt_all.push_back(response);
        rt_class[soonest_class].push_back(response);
      } else if (completed >= options.warmup_jobs) {
        warm = true;
        avg_util.reset_at(now);
      }
    } else {
      const auto n = arrival_class;
      queues[n].push_back(
          {now, exponential(rng_size[n], params.classes[n].mu)});
      next_arrival[n] =
          now + exponential(rng_arrival[n], params.classes[n].lambda);
    }
  }

  MultiClassSimResult result;
  result.utilization = avg_util.average();
  result.mean_response_time =
      batch_means_ci(rt_all, options.batches, options.confidence);
  result.class_response_time.resize(num_classes, 0.0);
  result.class_completed.resize(num_classes, 0);
  for (std::size_t n = 0; n < num_classes; ++n) {
    result.class_completed[n] = rt_class[n].size();
    if (!rt_class[n].empty()) {
      double total = 0.0;
      for (double r : rt_class[n]) total += r;
      result.class_response_time[n] =
          total / static_cast<double>(rt_class[n].size());
    }
  }
  return result;
}

namespace {

std::vector<int> sorted_order(const MultiClassParams& params,
                              bool (*before)(const JobClass&,
                                             const JobClass&)) {
  params.validate();
  std::vector<int> order(params.classes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return before(params.classes[static_cast<std::size_t>(a)],
                  params.classes[static_cast<std::size_t>(b)]);
  });
  return order;
}

}  // namespace

std::vector<int> least_parallelizable_first(const MultiClassParams& params) {
  return sorted_order(params, [](const JobClass& a, const JobClass& b) {
    if (a.cap != b.cap) return a.cap < b.cap;
    return a.mu > b.mu;  // ties: smaller jobs first
  });
}

std::vector<int> most_parallelizable_first(const MultiClassParams& params) {
  return sorted_order(params, [](const JobClass& a, const JobClass& b) {
    if (a.cap != b.cap) return a.cap > b.cap;
    return a.mu > b.mu;
  });
}

std::vector<int> smallest_size_first(const MultiClassParams& params) {
  return sorted_order(params, [](const JobClass& a, const JobClass& b) {
    return a.mu > b.mu;
  });
}

}  // namespace esched
