// Arrival traces: fixed sequences of (time, class, size).
//
// Theorem 3's coupling argument fixes an arrival sequence and compares
// policies on it. Traces make that executable: generate one stochastic
// trace, then replay it deterministically under each policy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"

namespace esched {

/// One job arrival.
struct TraceArrival {
  double time = 0.0;
  bool elastic = false;
  double size = 0.0;
};

/// A finite arrival sequence on [0, horizon].
struct Trace {
  std::vector<TraceArrival> arrivals;  // sorted by time
  double horizon = 0.0;

  std::size_t num_jobs() const { return arrivals.size(); }
};

/// Samples a trace from the model: Poisson arrivals of both classes on
/// [0, horizon] with exponential sizes, merged in time order.
Trace generate_trace(const SystemParams& params, double horizon,
                     std::uint64_t seed);

/// A trace consisting only of jobs present at time 0 (used by the
/// Theorem 6 counterexample and other transient experiments).
Trace initial_batch_trace(const std::vector<TraceArrival>& jobs);

}  // namespace esched
