#include "studies/srpt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace esched {

namespace {

void check_jobs(const std::vector<BatchJob>& jobs, int k) {
  ESCHED_CHECK(!jobs.empty(), "need at least one job");
  ESCHED_CHECK(k >= 1, "need at least one server");
  for (const auto& j : jobs) {
    ESCHED_CHECK(j.size > 0.0, "job sizes must be positive");
    ESCHED_CHECK(j.cap > 0.0, "job caps must be positive");
  }
}

}  // namespace

BatchScheduleResult priority_schedule(const std::vector<BatchJob>& jobs,
                                      int k, const std::vector<int>& order,
                                      double speed) {
  check_jobs(jobs, k);
  ESCHED_CHECK(order.size() == jobs.size(), "order must be a permutation");
  ESCHED_CHECK(speed > 0.0, "speed must be positive");

  const std::size_t n = jobs.size();
  std::vector<double> remaining(n);
  for (std::size_t j = 0; j < n; ++j) remaining[j] = jobs[j].size;
  std::vector<bool> done(n, false);

  BatchScheduleResult result;
  result.completion_times.assign(n, 0.0);
  double now = 0.0;
  std::size_t finished = 0;

  while (finished < n) {
    // Hand out servers down the priority list.
    std::vector<double> rate(n, 0.0);
    double servers_left = static_cast<double>(k);
    for (int idx : order) {
      const auto j = static_cast<std::size_t>(idx);
      if (done[j] || servers_left <= 1e-12) continue;
      const double give = std::min(jobs[j].cap, servers_left);
      rate[j] = give * speed;
      servers_left -= give;
    }
    // Next completion under these constant rates.
    double dt = std::numeric_limits<double>::infinity();
    std::size_t next_done = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (done[j] || rate[j] <= 0.0) continue;
      const double candidate = remaining[j] / rate[j];
      if (candidate < dt) {
        dt = candidate;
        next_done = j;
      }
    }
    ESCHED_ASSERT(next_done < n, "no job is making progress");
    now += dt;
    for (std::size_t j = 0; j < n; ++j) {
      if (!done[j] && rate[j] > 0.0) {
        remaining[j] = std::max(0.0, remaining[j] - rate[j] * dt);
      }
    }
    remaining[next_done] = 0.0;
    done[next_done] = true;
    result.completion_times[next_done] = now;
    result.total_response_time += now;
    ++finished;
  }
  result.makespan = now;
  return result;
}

BatchScheduleResult srpt_k_schedule(const std::vector<BatchJob>& jobs, int k,
                                    double speed) {
  check_jobs(jobs, k);
  std::vector<int> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return jobs[static_cast<std::size_t>(a)].size <
           jobs[static_cast<std::size_t>(b)].size;
  });
  return priority_schedule(jobs, k, order, speed);
}

double best_static_priority_cost(const std::vector<BatchJob>& jobs, int k) {
  check_jobs(jobs, k);
  ESCHED_CHECK(jobs.size() <= 9, "exhaustive search limited to n <= 9");
  std::vector<int> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best,
                    priority_schedule(jobs, k, order).total_response_time);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace esched
