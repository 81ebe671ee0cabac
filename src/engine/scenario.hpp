// Declarative scenario specs for the parallel sweep engine.
//
// Every experiment in the paper (Figs. 4-6, the §4 optimality sweeps) is a
// parameter sweep over (k, rho, mu_I, mu_E, policy, solver) — plus, for the
// ablation studies, the truncation level and busy-period fit order. Instead
// of each harness hand-rolling nested loops, a Scenario names the axes and
// expand() produces the cross product as concrete RunPoints that the
// SweepRunner executes on all cores. Scenarios are data: built-ins are
// registered as embedded JSON specs (engine/spec) and user scenarios load
// from disk through the same parser, so there is exactly one construction
// path and new workloads need no recompile.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/policy.hpp"
#include "core/response_time.hpp"
#include "phase/size_dist.hpp"

namespace esched {

/// Which solver backend evaluates a RunPoint.
enum class SolverKind {
  kQbdAnalysis,     ///< §5 busy-period transformation + QBD (EF/IF only)
  kExactCtmc,       ///< truncated 2-D chain (any policy; ground truth)
  kSimulation,      ///< job-level discrete-event simulator
  kMmkBaseline,     ///< dedicated-cluster M/M/k / M/M/1 closed forms
  kTraceDominance,  ///< Thm. 3 coupled trace replay: policy vs IF work paths
};

/// Stable identifier used in CLI flags, CSV output, and cache keys.
const char* solver_name(SolverKind kind);

/// Inverse of solver_name ("qbd", "exact", "sim", "mmk", "trace"). Throws
/// on an unknown name.
SolverKind parse_solver(const std::string& name);

/// Builds a policy from its spec string: "IF", "EF", "FairShare", "CapN"
/// (N a non-negative integer, e.g. "Cap2"), or "IF+idleX" (X a double
/// number of deliberately idled servers). Throws on an unknown spec.
PolicyPtr make_policy(const std::string& spec);

/// Tail histogram shape of a sim_tails point: per class c the range is
/// [0, kSimTailSpan / mu_c) with kSimTailBins uniform bins (quantiles
/// interpolate within bins, so the span is generous and the bins fine).
inline constexpr double kSimTailSpan = 400.0;
inline constexpr std::size_t kSimTailBins = 20000;
/// Thm. 3 trace replay (kTraceDominance): the fixed arrival sequence is
/// generated on [0, kTraceHorizon] from kTraceSeed.
inline constexpr double kTraceHorizon = 1500.0;
inline constexpr std::uint64_t kTraceSeed = 2026;

/// Per-run knobs shared by every point of a scenario. Only the fields the
/// point's solver reads take part in its cache key (see cache_key()), so
/// e.g. an exact-CTMC point is shared across fit-order axis values.
struct RunOptions {
  /// Busy-period moment-matching order for the QBD analyses.
  BusyFitOrder fit_order = BusyFitOrder::kThreeMoment;
  /// Exact-CTMC truncation: target boundary mass when imax/jmax are 0.
  double truncation_epsilon = 1e-9;
  long imax = 0;  ///< explicit inelastic truncation (0 = derive from rho)
  long jmax = 0;  ///< explicit elastic truncation (0 = derive from rho)
  /// Simulation controls (kSimulation only).
  std::uint64_t sim_jobs = 200000;
  std::uint64_t sim_warmup = 20000;
  /// Base seed; each point derives its own deterministic seed from this
  /// and its cache key, so results are independent of thread count.
  std::uint64_t base_seed = 1;
  /// Collect response-time histograms and fill the RunResult tail
  /// percentiles (P50/P95/P99 per class); see kSimTailSpan.
  bool sim_tails = false;
  /// Job-size distributions per class (default: the paper's Exp(mu_c)).
  /// Shapes only — each compiles to a PhaseType scaled to the class mean
  /// 1/mu_c, so variability changes at fixed load. The sim backend accepts
  /// both; exact accepts a phase-type *inelastic* size (state
  /// augmentation) but only exponential elastic sizes; qbd/mmk/trace
  /// require both exponential and reject others with an error naming the
  /// option. Exponential specs keep the pre-refactor cache keys
  /// byte-identical and the closed-form sampling paths.
  SizeDistSpec size_dist_i;
  SizeDistSpec size_dist_e;

  /// Throws esched::Error when a numeric knob is degenerate (sim_jobs not
  /// exceeding sim_warmup or below 40, truncation_epsilon outside (0,1),
  /// ...).
  /// Scenario::validate() calls this, so bad options fail loudly before a
  /// sweep runs.
  void validate() const;
};

/// One concrete (params, policy, solver) cell of a sweep.
struct RunPoint {
  SystemParams params;
  std::string policy = "IF";
  SolverKind solver = SolverKind::kQbdAnalysis;
  RunOptions options;

  /// Canonical key identifying this point for memoization: two points with
  /// equal keys are guaranteed to produce identical results. The key is
  /// backend-sensitive — options a solver never reads are omitted — so
  /// e.g. the one QBD solve of an (params, policy) pair is shared across
  /// every truncation-axis value of an ablation sweep.
  std::string cache_key() const;

  /// Deterministic per-point RNG seed (FNV-1a hash of the cache key),
  /// independent of execution order and thread count.
  std::uint64_t seed() const;
};

/// One explicit (k, mu_I, mu_E, rho) spot setting. Scenarios whose
/// interesting points are hand-picked (the §4 optimality table, the
/// accuracy spot grid) list cases instead of spanning a cross product.
struct CaseSpec {
  int k = 4;
  double mu_i = 1.0;
  double mu_e = 1.0;
  double rho = 0.9;
  int elastic_cap = 0;
};

/// Declarative sweep spec: expand() emits the cross product of the axes in
/// row-major order (k, rho, mu_i, mu_e, elastic_cap, truncation,
/// fit_order, size_dist, policy, solver), with `cases` — when non-empty —
/// replacing the first five parameter axes by its explicit settings list.
/// Arrival
/// rates are split equally (lambda_I = lambda_E), the convention of the
/// paper's figures, via SystemParams::from_load.
struct Scenario {
  std::string name = "custom";
  std::string description;
  std::vector<int> k_values{4};
  std::vector<double> rho_values{0.9};
  std::vector<double> mu_i_values{1.0};
  std::vector<double> mu_e_values{1.0};
  std::vector<int> elastic_caps{0};
  /// Explicit settings; non-empty replaces the k/rho/mu/cap axes above.
  std::vector<CaseSpec> cases;
  /// Optional truncation axis (sets options.imax = options.jmax per
  /// point); empty means "no axis" (use the scenario options).
  std::vector<long> trunc_values;
  /// Optional busy-period fit-order axis (values 1..3); empty means "no
  /// axis" (use options.fit_order).
  std::vector<int> fit_orders;
  /// Optional job-size-distribution axis: each value sets BOTH classes'
  /// size distributions per point (the robustness-sweep shape — vary
  /// variability at fixed load). Empty means "no axis" (use
  /// options.size_dist_i / size_dist_e).
  std::vector<SizeDistSpec> size_dists;
  std::vector<std::string> policies{"IF", "EF"};
  std::vector<SolverKind> solvers{SolverKind::kQbdAnalysis};
  RunOptions options;
  /// Default report view (see engine/report print_view); CLI --view wins.
  std::string view = "table";

  /// Product of the axis sizes; equals expand().size().
  std::size_t num_points() const;
  std::vector<RunPoint> expand() const;

  /// Throws esched::Error when an axis is empty or a value is invalid
  /// (unknown policy, unstable rho >= 1, ...).
  void validate() const;
};

/// Contiguous [begin, end) row range of shard `index` of `count` over a
/// `total`-point sweep: begin = floor(index * total / count), computed
/// division-first so it cannot overflow for very large sweeps (the naive
/// index * total product wraps already around 2^64 / count points).
/// Shards partition [0, total) exactly; when total < count the trailing
/// shards are empty (begin == end), which the report layer emits as a
/// header-only CSV that `esched merge` accepts. Throws when count == 0 or
/// index >= count.
std::pair<std::size_t, std::size_t> shard_range(std::size_t total,
                                                std::size_t index,
                                                std::size_t count);

/// Contiguous fixed-size chunk ranges covering [0, total) in row order:
/// chunk c is [c * chunk_size, min((c+1) * chunk_size, total)), so every
/// chunk holds exactly chunk_size points except a possibly-shorter final
/// one. Unlike shard_range — which divides a sweep into a *given number*
/// of slices — this divides it into slices of a *given size*, the unit
/// the distributed work queue (src/dist) hands to workers; `esched merge`
/// of the chunk CSVs in chunk order reproduces the unsharded report, the
/// same invariant shards satisfy. Throws when chunk_size == 0.
std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t total, std::size_t chunk_size);

/// Named built-in scenarios, registered as embedded JSON specs through the
/// same loader as user files (engine/spec): "fig4", "fig5", "fig6",
/// "optimality-sweep", plus one per ported bench harness. Throws on an
/// unknown name.
Scenario builtin_scenario(const std::string& name);
std::vector<std::string> builtin_scenario_names();

}  // namespace esched
