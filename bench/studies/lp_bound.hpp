// The LP lower bound of Appendix A.
//
// The relaxation (LP_primal)
//   min sum_j sum_t (t/x_j + 1/(2 k_j)) y_jt
//   s.t. sum_t y_jt >= x_j (every job finishes),
//        sum_j y_jt <= k  (capacity),  y >= 0
// lower-bounds the optimal total response time. Its optimum has a closed
// form: process jobs serially in SPT order at full speed k (an exchange
// argument — moving work of a smaller job earlier always reduces the
// t-weighted term, and the 1/(2 k_j) term is schedule-independent):
//   LP* = sum_j (U_j + x_j / 2) / k + sum_j x_j / (2 k_j),
// where U_j is the total size of jobs strictly before j in SPT order.
// lp_cost_of_serial_order() evaluates the LP objective of any serial
// order so tests can confirm SPT is the argmin.
#pragma once

#include <vector>

#include "studies/srpt.hpp"

namespace esched {

/// Closed-form LP lower bound (serial SPT at speed k).
double lp_lower_bound(const std::vector<BatchJob>& jobs, int k);

/// LP objective value of the feasible solution that processes jobs
/// serially at speed k in the given order — equals lp_lower_bound() when
/// `order` is SPT; strictly larger otherwise (used in tests).
double lp_cost_of_serial_order(const std::vector<BatchJob>& jobs, int k,
                               const std::vector<int>& order);

}  // namespace esched
