#include "studies/lp_bound.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace esched {

double lp_cost_of_serial_order(const std::vector<BatchJob>& jobs, int k,
                               const std::vector<int>& order) {
  ESCHED_CHECK(!jobs.empty(), "need at least one job");
  ESCHED_CHECK(k >= 1, "need at least one server");
  ESCHED_CHECK(order.size() == jobs.size(), "order must be a permutation");
  const double kd = static_cast<double>(k);
  // Job j occupies [U/k, (U + x_j)/k] at rate k; its t-weighted integral is
  // the interval midpoint times x_j, contributing (U + x_j/2)/k per unit
  // divided by x_j — i.e. exactly (U + x_j/2)/k.
  double cost = 0.0;
  double elapsed_work = 0.0;
  for (int idx : order) {
    const BatchJob& job = jobs[static_cast<std::size_t>(idx)];
    ESCHED_CHECK(job.size > 0.0 && job.cap > 0.0,
                 "jobs must have positive size and cap");
    cost += (elapsed_work + 0.5 * job.size) / kd;
    cost += 0.5 * job.size / job.cap;
    elapsed_work += job.size;
  }
  return cost;
}

double lp_lower_bound(const std::vector<BatchJob>& jobs, int k) {
  std::vector<int> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return jobs[static_cast<std::size_t>(a)].size <
           jobs[static_cast<std::size_t>(b)].size;
  });
  return lp_cost_of_serial_order(jobs, k, order);
}

}  // namespace esched
