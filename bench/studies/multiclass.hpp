// Multi-class generalization (paper §6 future work): N job classes, each
// with its own Poisson arrival rate, exponential size distribution, and
// parallelizability cap c_n (c = 1 is inelastic, c = k fully elastic,
// intermediate values partially elastic).
//
// Policies here are static priority ORDERS over classes: servers are
// handed down the priority list, FCFS within a class, each job taking up
// to its class cap. With two classes this reduces exactly to the paper's
// IF (inelastic class first) and EF (elastic class first); the simulator
// is validated against the two-class engine in the tests. The paper
// leaves the optimal multi-class policy open — this module provides the
// experimental apparatus for that question.
//
// A study: only bench_extension_future_work and test_multiclass use it, so
// it lives beside them, outside libesched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/confidence.hpp"

namespace esched {

/// One job class.
struct JobClass {
  std::string name;
  double lambda = 0.0;  ///< Poisson arrival rate
  double mu = 1.0;      ///< size rate (mean size 1/mu)
  double cap = 1.0;     ///< max servers one job can use (1 = inelastic)
};

/// A k-server system shared by several classes.
struct MultiClassParams {
  int k = 1;
  std::vector<JobClass> classes;

  /// Total load sum_n lambda_n / (k mu_n); stability requires < 1.
  double rho() const;
  void validate() const;
};

/// Simulation controls (mirrors the two-class SimOptions).
struct MultiClassSimOptions {
  std::uint64_t num_jobs = 200000;
  std::uint64_t warmup_jobs = 20000;
  std::uint64_t seed = 1;
  int batches = 20;
  double confidence = 0.95;
};

/// Per-class and overall results.
struct MultiClassSimResult {
  ConfidenceInterval mean_response_time;
  std::vector<double> class_response_time;  ///< mean per class
  std::vector<std::uint64_t> class_completed;
  double utilization = 0.0;
};

/// Simulates the static priority order `order` (a permutation of class
/// indices; earlier = higher priority).
MultiClassSimResult simulate_multiclass(const MultiClassParams& params,
                                        const std::vector<int>& order,
                                        const MultiClassSimOptions& options = {});

/// Priority orders generalizing the paper's policies:
/// least parallelizable first (cap ascending, ties by larger mu first) —
/// the natural generalization of IF...
std::vector<int> least_parallelizable_first(const MultiClassParams& params);
/// ...and most parallelizable first (the EF generalization).
std::vector<int> most_parallelizable_first(const MultiClassParams& params);
/// Smallest expected size first (mu descending), ignoring caps.
std::vector<int> smallest_size_first(const MultiClassParams& params);

}  // namespace esched
