// FCFS job queue and per-class service rule shared by the job-level
// simulator (cluster_sim.cpp) and the coupled trace replay (coupled.cpp).
// Internal to src/sim.
//
// Within a class, the class allocation flows down the FCFS queue: each job
// takes up to its per-job cap (1 for inelastic jobs, the parallelism cap
// for elastic ones) and a fractional remainder goes to the next job in
// line. Everything here reuses its storage across events, so an event loop
// built on it allocates nothing once the queues reach their peak length.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/numeric.hpp"

namespace esched::sim_detail {

struct Job {
  double arrival_time;
  double remaining;
};

/// FCFS queue of jobs in a power-of-two ring. Index 0 is the head of line.
class JobRing {
 public:
  std::size_t size() const { return size_; }

  Job& operator[](std::size_t idx) { return slots_[(head_ + idx) & mask_]; }
  const Job& operator[](std::size_t idx) const {
    return slots_[(head_ + idx) & mask_];
  }

  void push_back(const Job& job) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = job;
    ++size_;
  }

  /// Removes the job at `idx`. Completions happen only inside the served
  /// prefix, so the jobs ahead of it shift back one slot and the head
  /// advances; the (longer) tail stays put.
  void erase(std::size_t idx) {
    for (std::size_t n = idx; n > 0; --n) (*this)[n] = (*this)[n - 1];
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  void grow() {
    std::vector<Job> bigger(std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::size_t n = 0; n < size_; ++n) bigger[n] = (*this)[n];
    slots_.swap(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<Job> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Per-job rates of one class's served FCFS prefix and its earliest
/// completion. Reused across events.
struct ClassService {
  std::vector<double> rates;  // parallel to the served queue prefix
  std::size_t soonest_index = 0;
  double soonest_dt = kInf;   // kInf when no job is served
  double total_rate = 0.0;
};

/// Serves `queue` FCFS with `servers` servers, each job taking at most
/// `per_job_cap` of them, and writes the per-job rates into `out`.
inline void serve_fcfs(const JobRing& queue, double servers,
                       double per_job_cap, ClassService& out) {
  out.rates.clear();
  out.soonest_index = 0;
  out.soonest_dt = kInf;
  out.total_rate = 0.0;
  double left = servers;
  for (std::size_t idx = 0; idx < queue.size() && left > 1e-12; ++idx) {
    const double rate = std::min(per_job_cap, left);
    left -= rate;
    out.rates.push_back(rate);
    out.total_rate += rate;
    const double dt = queue[idx].remaining / rate;
    if (dt < out.soonest_dt) {
      out.soonest_dt = dt;
      out.soonest_index = idx;
    }
  }
}

/// Depletes the served prefix of `queue` linearly over `dt`.
inline void deplete(JobRing& queue, const ClassService& svc, double dt) {
  for (std::size_t idx = 0; idx < svc.rates.size(); ++idx) {
    queue[idx].remaining =
        std::max(0.0, queue[idx].remaining - svc.rates[idx] * dt);
  }
}

}  // namespace esched::sim_detail
