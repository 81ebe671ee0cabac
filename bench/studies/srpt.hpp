// Worst-case scheduling of parallelizable jobs arriving at time 0
// (paper Appendix A).
//
// Each job j has inherent size x_j and a parallelizability cap k_j: given
// k' <= k servers it processes at rate min(k_j, k'). The generalized
// SRPT-k algorithm sorts jobs by inherent size and hands out servers down
// that priority list, each job taking up to its cap. Theorem 9 shows this
// is a 4-approximation for total (equivalently mean) response time; we
// verify it against the LP lower bound of lp_bound.hpp.
//
// A study: only bench_srpt_approx, bench_srpt_online_ratio and their tests
// use it, so it lives beside them, outside libesched.
#pragma once

#include <vector>

namespace esched {

/// A parallelizable job: inherent size and speedup cap (both positive;
/// cap may exceed k, which means "fully elastic").
struct BatchJob {
  double size = 0.0;
  double cap = 1.0;
};

/// Result of running a batch schedule.
struct BatchScheduleResult {
  std::vector<double> completion_times;  // per job, in input order
  double total_response_time = 0.0;      // = sum of completions (release 0)
  double makespan = 0.0;
};

/// Runs generalized SRPT-k: static priority by inherent size (ties by input
/// order), each job up to min(cap, remaining servers), speed-`speed`
/// servers. Piecewise-constant rates between completions.
BatchScheduleResult srpt_k_schedule(const std::vector<BatchJob>& jobs, int k,
                                    double speed = 1.0);

/// Runs the same server-filling rule under an arbitrary static priority
/// `order` (a permutation of job indices; earlier = higher priority).
BatchScheduleResult priority_schedule(const std::vector<BatchJob>& jobs,
                                      int k, const std::vector<int>& order,
                                      double speed = 1.0);

/// Exhaustively searches all static priority orders (n <= 9) and returns
/// the best total response time — a strong baseline for tiny instances.
double best_static_priority_cost(const std::vector<BatchJob>& jobs, int k);

}  // namespace esched
