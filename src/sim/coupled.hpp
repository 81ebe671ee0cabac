// Coupled sample-path runs (the Theorem 3 experiment).
//
// Theorem 3 proves that on any fixed arrival sequence, IF has at most as
// much total work W(t) and inelastic work W_I(t) as any policy in P, at
// every instant t. This module replays one trace deterministically under a
// policy and records the exact piecewise-linear work paths so that two
// policies can be compared pointwise in time.
#pragma once

#include <vector>

#include "core/params.hpp"
#include "core/policy.hpp"
#include "sim/trace.hpp"

namespace esched {

/// One breakpoint of the piecewise-linear work path: at `time`, total and
/// inelastic work are as recorded, and until the next breakpoint they
/// deplete at `work_rate` / `inelastic_rate` servers respectively.
struct WorkSample {
  double time = 0.0;
  double total_work = 0.0;
  double inelastic_work = 0.0;
  double work_rate = 0.0;
  double inelastic_rate = 0.0;
};

/// Exact piecewise-linear record of W(t) and W_I(t) over one trace replay.
class WorkPath {
 public:
  explicit WorkPath(std::vector<WorkSample> samples);

  /// W(t); t must be within the recorded span (clamped at the ends).
  double total_work_at(double t) const;
  /// W_I(t).
  double inelastic_work_at(double t) const;

  const std::vector<WorkSample>& samples() const { return samples_; }

 private:
  std::size_t segment_for(double t) const;
  std::vector<WorkSample> samples_;
};

/// Replays `trace` under `policy` (deterministically — sizes come from the
/// trace) and records the work path until the system empties after the
/// last arrival.
WorkPath run_on_trace(const Trace& trace, const SystemParams& params,
                      const AllocationPolicy& policy);

/// Result of a pointwise dominance check between two work paths.
struct DominanceReport {
  /// max over checked t of max(0, W_dominant(t) - W_other(t)).
  double max_total_violation = 0.0;
  /// Same for inelastic work.
  double max_inelastic_violation = 0.0;
  std::size_t num_checkpoints = 0;
};

/// Evaluates both paths at the union of their breakpoints (plus segment
/// midpoints) and reports how much `dominant` ever exceeds `other`.
/// Theorem 3 predicts zero violations when `dominant` ran IF and `other`
/// ran any policy in P.
DominanceReport check_dominance(const WorkPath& dominant,
                                const WorkPath& other);

}  // namespace esched
