// State-level CTMC simulator.
//
// Because sizes are exponential and arrivals Poisson, the pair (N_I, N_E)
// is itself a CTMC (paper §2, Fig 1). Simulating that chain directly —
// exponential races between four events — is much faster than the
// job-level simulator and is all that is needed for E[N]/E[T] estimates
// (Little's law). The job-level simulator remains the ground truth for
// per-job response times and non-exponential extensions.
//
// Only tests call this simulator. It stays as an independent oracle: it
// shares no event loop with the job-level simulator (sim/cluster_sim), so
// CtmcSim.AgreesWithJobLevelSimulator checks cluster_sim's dynamics
// rather than restating them, and BoundedElastic.CtmcSimulatorHonorsCap
// checks the elastic cap by simulation against the exact chain.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "core/policy.hpp"

namespace esched {

struct CtmcSimOptions {
  double horizon = 200000.0;  ///< simulated time units
  double warmup = 20000.0;    ///< discarded prefix
  std::uint64_t seed = 1;
};

struct CtmcSimResult {
  double mean_jobs_i = 0.0;
  double mean_jobs_e = 0.0;
  double mean_response_time = 0.0;  ///< via Little's law
  std::uint64_t transitions = 0;
};

/// Simulates the (N_I, N_E) chain under `policy`.
CtmcSimResult simulate_ctmc(const SystemParams& params,
                            const AllocationPolicy& policy,
                            const CtmcSimOptions& options = {});

}  // namespace esched
