#include "studies/srpt_online.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace esched {

namespace {

void check_jobs(const std::vector<OnlineJob>& jobs) {
  ESCHED_CHECK(!jobs.empty(), "need at least one job");
  for (const auto& j : jobs) {
    ESCHED_CHECK(j.release >= 0.0, "release times must be non-negative");
    ESCHED_CHECK(j.size > 0.0, "job sizes must be positive");
    ESCHED_CHECK(j.cap > 0.0, "job caps must be positive");
  }
}

}  // namespace

OnlineScheduleResult srpt_k_online(const std::vector<OnlineJob>& jobs,
                                   int k) {
  check_jobs(jobs);
  ESCHED_CHECK(k >= 1, "need at least one server");
  const std::size_t n = jobs.size();

  std::vector<double> remaining(n);
  for (std::size_t j = 0; j < n; ++j) remaining[j] = jobs[j].size;
  std::vector<bool> released(n, false), done(n, false);
  // Releases in time order.
  std::vector<std::size_t> release_order(n);
  std::iota(release_order.begin(), release_order.end(), 0);
  std::stable_sort(release_order.begin(), release_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].release < jobs[b].release;
                   });

  OnlineScheduleResult result;
  result.completion_times.assign(n, 0.0);
  double now = 0.0;
  std::size_t next_release = 0;
  std::size_t finished = 0;

  while (finished < n) {
    // Admit all jobs released by `now`.
    while (next_release < n &&
           jobs[release_order[next_release]].release <= now + 1e-15) {
      released[release_order[next_release++]] = true;
    }
    // Active jobs by remaining size (SRPT), ties by input order.
    std::vector<std::size_t> active;
    for (std::size_t j = 0; j < n; ++j) {
      if (released[j] && !done[j]) active.push_back(j);
    }
    const double upcoming =
        next_release < n ? jobs[release_order[next_release]].release : kInf;
    if (active.empty()) {
      ESCHED_ASSERT(upcoming < kInf, "idle with no future releases");
      now = upcoming;
      continue;
    }
    std::stable_sort(active.begin(), active.end(),
                     [&](std::size_t a, std::size_t b) {
                       return remaining[a] < remaining[b];
                     });
    // Servers down the SRPT list, each job up to its cap.
    std::vector<double> rate(n, 0.0);
    double left = static_cast<double>(k);
    for (std::size_t j : active) {
      if (left <= 1e-12) break;
      rate[j] = std::min(jobs[j].cap, left);
      left -= rate[j];
    }
    // Next event: completion or release.
    double dt = upcoming - now;
    std::size_t completing = n;
    for (std::size_t j : active) {
      if (rate[j] <= 0.0) continue;
      const double candidate = remaining[j] / rate[j];
      if (candidate < dt) {
        dt = candidate;
        completing = j;
      }
    }
    ESCHED_ASSERT(dt < kInf, "scheduler is stuck");
    for (std::size_t j : active) {
      if (rate[j] > 0.0) {
        remaining[j] = std::max(0.0, remaining[j] - rate[j] * dt);
      }
    }
    now += dt;
    if (completing < n) {
      remaining[completing] = 0.0;
      done[completing] = true;
      result.completion_times[completing] = now;
      result.total_response_time += now - jobs[completing].release;
      ++finished;
    }
  }
  return result;
}

double single_machine_srpt_cost(const std::vector<OnlineJob>& jobs,
                                double speed) {
  check_jobs(jobs);
  ESCHED_CHECK(speed > 0.0, "speed must be positive");
  // Same event loop, but exactly one job (the SRPT choice) runs at `speed`.
  const std::size_t n = jobs.size();
  std::vector<double> remaining(n);
  for (std::size_t j = 0; j < n; ++j) remaining[j] = jobs[j].size;
  std::vector<bool> released(n, false), done(n, false);
  std::vector<std::size_t> release_order(n);
  std::iota(release_order.begin(), release_order.end(), 0);
  std::stable_sort(release_order.begin(), release_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].release < jobs[b].release;
                   });
  double now = 0.0;
  double total = 0.0;
  std::size_t next_release = 0;
  std::size_t finished = 0;
  while (finished < n) {
    while (next_release < n &&
           jobs[release_order[next_release]].release <= now + 1e-15) {
      released[release_order[next_release++]] = true;
    }
    std::size_t best = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (released[j] && !done[j] &&
          (best == n || remaining[j] < remaining[best])) {
        best = j;
      }
    }
    const double upcoming =
        next_release < n ? jobs[release_order[next_release]].release : kInf;
    if (best == n) {
      ESCHED_ASSERT(upcoming < kInf, "idle with no future releases");
      now = upcoming;
      continue;
    }
    const double to_finish = remaining[best] / speed;
    if (now + to_finish <= upcoming) {
      now += to_finish;
      remaining[best] = 0.0;
      done[best] = true;
      total += now - jobs[best].release;
      ++finished;
    } else {
      remaining[best] -= (upcoming - now) * speed;
      now = upcoming;
    }
  }
  return total;
}

double online_lower_bound(const std::vector<OnlineJob>& jobs, int k) {
  check_jobs(jobs);
  ESCHED_CHECK(k >= 1, "need at least one server");
  const double relaxation =
      single_machine_srpt_cost(jobs, static_cast<double>(k));
  double processing = 0.0;
  for (const auto& j : jobs) {
    processing += j.size / std::min(j.cap, static_cast<double>(k));
  }
  return std::max(relaxation, processing);
}

}  // namespace esched
