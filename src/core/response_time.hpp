// Shared result type for the EF/IF response-time analyses (paper §5).
#pragma once

#include "phase/fit.hpp"

namespace esched {

/// How many busy-period moments the transformation matches (ablation knob;
/// the paper's method is kThreeMoment). One moment degenerates the Coxian
/// to an exponential; two moments match (m1, m2) and take the smallest
/// feasible third moment.
enum class BusyFitOrder {
  kOneMoment = 1,
  kTwoMoment = 2,
  kThreeMoment = 3,
};

/// Fits the Coxian-2 for a busy period under the requested ablation order.
Coxian2Params fit_busy_period(const Moments3& moments, BusyFitOrder order);

/// Output of the busy-period-transformation + matrix-analytic analysis of
/// one policy (EF or IF).
struct ResponseTimeAnalysis {
  double mean_response_time = 0.0;    ///< overall E[T]
  double mean_response_time_i = 0.0;  ///< E[T] of inelastic jobs
  double mean_response_time_e = 0.0;  ///< E[T] of elastic jobs
  double mean_jobs_i = 0.0;           ///< E[N_I]
  double mean_jobs_e = 0.0;           ///< E[N_E]

  /// The Coxian-2 fitted to the relevant M/M/1 busy period (§5.2 step 3).
  Coxian2Params busy_period_fit;

  // Solver diagnostics.
  int qbd_iterations = 0;
  double qbd_residual = 0.0;  ///< max-abs of A0 + R A1 + R^2 A2
};

}  // namespace esched
