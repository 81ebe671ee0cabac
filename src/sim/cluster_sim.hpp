// Job-level discrete-event simulator of the k-server model (paper §2).
//
// Jobs carry actual remaining sizes; between events every allocation is
// constant, so remaining work depletes linearly and the next event is the
// earlier of the next arrival and the earliest completion. The policy is
// re-consulted at every event. Within a class, servers are assigned in
// FCFS order (inelastic: one server per job down the queue; elastic: the
// head-of-line job takes the entire class allocation), matching the
// paper's definition of EF/IF and of the class P.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "core/policy.hpp"
#include "phase/phase_type.hpp"
#include "stats/confidence.hpp"
#include "stats/histogram.hpp"

namespace esched {

/// Simulation controls.
struct SimOptions {
  std::uint64_t num_jobs = 200000;    ///< completions measured after warmup
  std::uint64_t warmup_jobs = 20000;  ///< completions discarded as warmup
  std::uint64_t seed = 1;
  int batches = 20;                   ///< batch count for batch-means CIs
  double confidence = 0.95;
  /// Re-checks allocation feasibility at every event (slower; meant for
  /// tests).
  bool check_invariants = false;
  /// Optional non-exponential size distributions (extension beyond the
  /// paper's model). Non-owning; must outlive the call. nullptr keeps the
  /// exponential defaults Exp(mu_I) / Exp(mu_E).
  const PhaseType* size_dist_i = nullptr;
  const PhaseType* size_dist_e = nullptr;
  /// Optional response-time histograms, filled with post-warmup per-job
  /// response times (caller-owned; use Histogram::quantile for P95/P99
  /// tail latencies, which the paper's mean-only analysis does not cover).
  Histogram* response_hist_i = nullptr;
  Histogram* response_hist_e = nullptr;
};

/// Per-class output statistics.
struct SimClassStats {
  ConfidenceInterval response_time;
  std::uint64_t completed = 0;
};

/// Simulation output.
struct SimResult {
  ConfidenceInterval mean_response_time;  ///< across both classes
  SimClassStats inelastic;
  SimClassStats elastic;
  double mean_jobs_i = 0.0;   ///< time-average N_I after warmup
  double mean_jobs_e = 0.0;   ///< time-average N_E after warmup
  double mean_work = 0.0;     ///< time-average total remaining work
  double utilization = 0.0;   ///< time-average busy servers / k
  double sim_time = 0.0;      ///< simulated time span (including warmup)
};

/// Runs the simulator for `policy` at `params`.
SimResult simulate(const SystemParams& params, const AllocationPolicy& policy,
                   const SimOptions& options = {});

}  // namespace esched
