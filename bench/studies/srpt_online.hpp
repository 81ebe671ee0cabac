// Online SRPT-k with release times (the setting of the paper's §1.4 /
// prior-work discussion, where SRPT-k is Θ(log min(p, n/k))-competitive).
//
// Jobs arrive over time; at every arrival/completion the scheduler
// reorders by REMAINING size (true SRPT, unlike the batch Appendix-A
// variant's static inherent-size priority) and hands servers down the
// list, each job up to its parallelizability cap. A lower bound comes
// from two relaxations: (a) one speed-k machine running single-machine
// SRPT (optimal for the relaxation), and (b) the per-job processing bound
// x_j / min(cap_j, k) added to its release time.
#pragma once

#include <vector>

#include "studies/srpt.hpp"

namespace esched {

/// A job with a release time.
struct OnlineJob {
  double release = 0.0;
  double size = 0.0;
  double cap = 1.0;
};

/// Result of an online schedule.
struct OnlineScheduleResult {
  std::vector<double> completion_times;  // input order
  double total_response_time = 0.0;      // sum of (completion - release)
};

/// Runs online SRPT-k (remaining-size priority, caps respected) on `k`
/// unit-speed servers.
OnlineScheduleResult srpt_k_online(const std::vector<OnlineJob>& jobs, int k);

/// Total response time of preemptive SRPT on a single machine of speed
/// `speed` (ignoring caps) — with speed = k this is a valid lower bound
/// for any k-server schedule of the same jobs.
double single_machine_srpt_cost(const std::vector<OnlineJob>& jobs,
                                double speed);

/// max( single-machine speed-k SRPT cost,
///      sum_j x_j / min(cap_j, k) )  — both relax any feasible schedule.
double online_lower_bound(const std::vector<OnlineJob>& jobs, int k);

}  // namespace esched
