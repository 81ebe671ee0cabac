#include "engine/solver_dispatch.hpp"

#include <array>
#include <chrono>
#include <optional>

#include "common/error.hpp"
#include "core/ef_analysis.hpp"
#include "obs/metrics.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "queueing/mmk.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/coupled.hpp"
#include "sim/trace.hpp"
#include "stats/histogram.hpp"

namespace esched {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-backend observability handles, resolved once per backend so the
/// per-solve updates are lock-free (registry lookup takes a mutex).
struct BackendMetrics {
  Counter& points;        ///< solver.<name>.points
  Counter& errors;        ///< solver.<name>.errors
  LogHistogram& seconds;  ///< solver.<name>.seconds — per-point solve time
  LogHistogram& states;   ///< solver.<name>.states — CTMC state counts
};

BackendMetrics& backend_metrics(SolverKind kind) {
  static const auto make = [](const char* name) {
    MetricsRegistry& m = global_metrics();
    const std::string prefix = std::string("solver.") + name;
    return BackendMetrics{m.counter(prefix + ".points"),
                          m.counter(prefix + ".errors"),
                          m.histogram(prefix + ".seconds"),
                          m.histogram(prefix + ".states")};
  };
  // Indexed by SolverKind; order must match the enum.
  static std::array<BackendMetrics, 5> metrics = {
      make("qbd"), make("exact"), make("sim"), make("mmk"), make("trace")};
  return metrics[static_cast<std::size_t>(kind)];
}

/// Named-rejection counter: solver.<name>.reject.<reason> distinguishes
/// "spec asked this backend for something it cannot do" from real errors.
void count_rejection(const char* solver, const char* reason) {
  global_metrics()
      .counter(std::string("solver.") + solver + ".reject." + reason)
      .add();
}

/// Solvers built on the Exp(mu) model reject non-exponential size specs,
/// naming the offending option so a spec author knows what to change.
void require_exponential_sizes(const RunPoint& point, const char* solver) {
  const auto reject = [&](const char* option, const SizeDistSpec& spec) {
    if (spec.is_exponential()) return;
    count_rejection(solver, "size_dist");
    throw Error(std::string("solver '") + solver +
                "' supports only exponential job sizes, but option '" +
                option + "' is '" + spec.canonical() +
                "'; use solver 'sim' (any distribution) or 'exact' "
                "(phase-type inelastic sizes)");
  };
  reject("size_dist_i", point.options.size_dist_i);
  reject("size_dist_e", point.options.size_dist_e);
}

RunResult run_qbd_analysis(const RunPoint& point) {
  require_exponential_sizes(point, "qbd");
  ESCHED_CHECK(point.params.elastic_cap == 0,
               "the QBD analyses cover only the base model (elastic_cap 0)");
  ResponseTimeAnalysis analysis;
  if (point.policy == "EF") {
    analysis = analyze_elastic_first(point.params, point.options.fit_order);
  } else if (point.policy == "IF") {
    analysis = analyze_inelastic_first(point.params, point.options.fit_order);
  } else {
    count_rejection("qbd", "policy");
    throw Error("solver 'qbd' analyzes only IF and EF, not '" + point.policy +
                "'; use solver 'exact' or 'sim' for other policies");
  }
  RunResult result;
  result.mean_response_time = analysis.mean_response_time;
  result.mean_response_time_i = analysis.mean_response_time_i;
  result.mean_response_time_e = analysis.mean_response_time_e;
  result.mean_jobs_i = analysis.mean_jobs_i;
  result.mean_jobs_e = analysis.mean_jobs_e;
  result.solver_iterations = analysis.qbd_iterations;
  result.solve_residual = analysis.qbd_spectral_radius;
  return result;
}

/// The (imax, jmax) an exact-CTMC point actually solves with: explicit
/// levels win; 0 derives from (rho, truncation_epsilon).
ExactCtmcOptions resolve_exact_options(const RunPoint& point) {
  ExactCtmcOptions options;
  const long derived = suggested_truncation(point.params.rho(),
                                            point.options.truncation_epsilon);
  options.imax = point.options.imax > 0 ? point.options.imax : derived;
  options.jmax = point.options.jmax > 0 ? point.options.jmax : derived;
  options.method = point.options.exact_method;
  return options;
}

RunResult exact_to_run_result(const ExactCtmcResult& exact) {
  RunResult result;
  result.mean_response_time = exact.mean_response_time;
  result.mean_response_time_i = exact.mean_response_time_i;
  result.mean_response_time_e = exact.mean_response_time_e;
  result.mean_jobs_i = exact.mean_jobs_i;
  result.mean_jobs_e = exact.mean_jobs_e;
  result.boundary_mass = exact.boundary_mass;
  result.num_states = static_cast<long>(exact.num_states);
  result.solver_iterations = exact.solve_info.iterations;
  result.solve_residual = exact.solve_info.residual;
  return result;
}

RunResult run_exact_ctmc(const RunPoint& point) {
  // Elastic sizes must stay exponential: the elastic class's aggregate
  // service rate relies on memorylessness. Inelastic sizes may be any
  // (small) phase type via the augmented chain.
  if (!point.options.size_dist_e.is_exponential()) {
    count_rejection("exact", "size_dist");
    throw Error("solver 'exact' supports phase-type sizes for the "
                "inelastic class only, but option 'size_dist_e' is '" +
                point.options.size_dist_e.canonical() +
                "'; use solver 'sim' for non-exponential elastic sizes");
  }
  const auto policy = make_policy(point.policy);
  if (!point.options.size_dist_i.is_exponential()) {
    const PhaseType dist =
        point.options.size_dist_i.compile(point.params.mu_i);
    const ExactCtmcResult exact = solve_exact_ctmc_ph(
        point.params, *policy, dist, resolve_exact_options(point));
    return exact_to_run_result(exact);
  }
  const ExactCtmcResult exact =
      solve_exact_ctmc(point.params, *policy, resolve_exact_options(point));
  return exact_to_run_result(exact);
}

RunResult run_simulation(const RunPoint& point) {
  SimOptions options;
  options.num_jobs = point.options.sim_jobs;
  options.warmup_jobs = point.options.sim_warmup;
  // The derived seed keeps distinct points on independent streams.
  options.seed = point.seed();
  // Exponential specs keep size_dist_* null so the simulator's closed-form
  // sampling path — and therefore its RNG stream — is bitwise identical to
  // the pre-refactor behavior.
  std::optional<PhaseType> dist_i;
  std::optional<PhaseType> dist_e;
  if (!point.options.size_dist_i.is_exponential()) {
    dist_i.emplace(point.options.size_dist_i.compile(point.params.mu_i));
    options.size_dist_i = &*dist_i;
  }
  if (!point.options.size_dist_e.is_exponential()) {
    dist_e.emplace(point.options.size_dist_e.compile(point.params.mu_e));
    options.size_dist_e = &*dist_e;
  }
  std::optional<Histogram> hist_i;
  std::optional<Histogram> hist_e;
  if (point.options.sim_tails) {
    const auto bins = static_cast<std::size_t>(point.options.sim_tail_bins);
    // Generous range; quantiles interpolate within bins.
    hist_i.emplace(0.0, point.options.sim_tail_span / point.params.mu_i, bins);
    hist_e.emplace(0.0, point.options.sim_tail_span / point.params.mu_e, bins);
    options.response_hist_i = &*hist_i;
    options.response_hist_e = &*hist_e;
  }
  const auto policy = make_policy(point.policy);
  const SimResult sim = simulate(point.params, *policy, options);
  RunResult result;
  result.mean_response_time = sim.mean_response_time.mean;
  result.mean_response_time_i = sim.inelastic.response_time.mean;
  result.mean_response_time_e = sim.elastic.response_time.mean;
  result.mean_jobs_i = sim.mean_jobs_i;
  result.mean_jobs_e = sim.mean_jobs_e;
  result.ci_halfwidth = sim.mean_response_time.half_width;
  if (point.options.sim_tails) {
    result.p50_i = hist_i->quantile(0.5);
    result.p95_i = hist_i->quantile(0.95);
    result.p99_i = hist_i->quantile(0.99);
    result.p50_e = hist_e->quantile(0.5);
    result.p95_e = hist_e->quantile(0.95);
    result.p99_e = hist_e->quantile(0.99);
  }
  return result;
}

/// Dedicated-cluster baseline: each class alone on the k servers.
/// Inelastic jobs form an M/M/k; a fully elastic class forms an M/M/1 with
/// service rate k mu_E (every elastic job can take all servers). A lower
/// bound useful for sanity-checking the shared-cluster policies.
RunResult run_mmk_baseline(const RunPoint& point) {
  require_exponential_sizes(point, "mmk");
  const SystemParams& p = point.params;
  ESCHED_CHECK(p.elastic_cap == 0,
               "the M/M/k baseline assumes fully elastic jobs");
  RunResult result;
  if (p.lambda_i > 0.0) {
    const MMk inelastic(p.lambda_i, p.mu_i, p.k);
    result.mean_response_time_i = inelastic.mean_response_time();
    result.mean_jobs_i = inelastic.mean_jobs();
  }
  if (p.lambda_e > 0.0) {
    const MMk elastic(p.lambda_e, static_cast<double>(p.k) * p.mu_e, 1);
    result.mean_response_time_e = elastic.mean_response_time();
    result.mean_jobs_e = elastic.mean_jobs();
  }
  const double total = p.lambda_i + p.lambda_e;
  ESCHED_CHECK(total > 0.0, "baseline requires some arrivals");
  result.mean_response_time =
      (result.mean_jobs_i + result.mean_jobs_e) / total;
  return result;
}

/// Theorem 3 check: replay one fixed trace under IF and under this point's
/// policy, compare the exact piecewise-linear work paths pointwise, and
/// average the work gap over the horizon. The trace derives only from
/// (params, trace_horizon, trace_seed), so every policy of a sweep is
/// coupled to the same arrival sequence — the theorem's setting.
RunResult run_trace_dominance(const RunPoint& point) {
  require_exponential_sizes(point, "trace");
  // Uniform sampling grid for the average gap W_pi(t) - W_IF(t).
  constexpr int kGapSamples = 4000;
  const Trace trace = generate_trace(point.params,
                                     point.options.trace_horizon,
                                     point.options.trace_seed);
  const WorkPath if_path = run_on_trace(trace, point.params, InelasticFirst{});
  const auto policy = make_policy(point.policy);
  const WorkPath other = run_on_trace(trace, point.params, *policy);
  const DominanceReport report = check_dominance(if_path, other);

  RunResult result;
  result.dom_max_violation = report.max_total_violation;
  result.dom_max_violation_i = report.max_inelastic_violation;
  result.dom_checkpoints = static_cast<long>(report.num_checkpoints);
  double gap = 0.0;
  for (int n = 0; n < kGapSamples; ++n) {
    const double t =
        point.options.trace_horizon * (n + 0.5) / kGapSamples;
    gap += other.total_work_at(t) - if_path.total_work_at(t);
  }
  result.dom_avg_gap = gap / kGapSamples;
  return result;
}

}  // namespace

RunResult dispatch_run(const RunPoint& point) {
  point.params.validate();
  BackendMetrics& metrics = backend_metrics(point.solver);
  const auto start = Clock::now();
  RunResult result;
  try {
    switch (point.solver) {
      case SolverKind::kQbdAnalysis: result = run_qbd_analysis(point); break;
      case SolverKind::kExactCtmc: result = run_exact_ctmc(point); break;
      case SolverKind::kSimulation: result = run_simulation(point); break;
      case SolverKind::kMmkBaseline: result = run_mmk_baseline(point); break;
      case SolverKind::kTraceDominance:
        result = run_trace_dominance(point);
        break;
    }
  } catch (...) {
    metrics.errors.add();
    throw;
  }
  result.solve_seconds = seconds_since(start);
  metrics.points.add();
  metrics.seconds.record(result.solve_seconds);
  if (result.num_states > 0) {
    metrics.states.record(static_cast<double>(result.num_states));
  }
  return result;
}

std::string exact_topology_key(const RunPoint& point) {
  if (point.solver != SolverKind::kExactCtmc) return {};
  // The augmented phase-type chain's reachable state space depends on the
  // policy, so those points cannot share a skeleton — solve them solo.
  if (!point.options.size_dist_i.is_exponential() ||
      !point.options.size_dist_e.is_exponential()) {
    return {};
  }
  // The cache key minus the policy field: exactly the inputs that shape
  // the chain topology (params + resolved truncation).
  RunPoint keyed = point;
  // std::string("*") (move-assign) rather than = "*": GCC 12's -Wrestrict
  // false-positives on char_traits::copy inlined from assign(const char*).
  keyed.policy = std::string("*");
  return keyed.cache_key();
}

ExactGroupSolver::ExactGroupSolver(const RunPoint& representative)
    : topology_key_(exact_topology_key(representative)),
      batch_(representative.params, resolve_exact_options(representative)) {
  ESCHED_CHECK(!topology_key_.empty(),
               "exact group requires exact-CTMC points");
}

RunResult ExactGroupSolver::solve(const RunPoint& point) {
  ESCHED_CHECK(exact_topology_key(point) == topology_key_,
               "exact group mixes chain topologies");
  BackendMetrics& metrics = backend_metrics(SolverKind::kExactCtmc);
  const auto start = Clock::now();
  RunResult result;
  try {
    result = exact_to_run_result(batch_.solve(*make_policy(point.policy)));
  } catch (...) {
    metrics.errors.add();
    throw;
  }
  result.solve_seconds = seconds_since(start);
  metrics.points.add();
  metrics.seconds.record(result.solve_seconds);
  if (result.num_states > 0) {
    metrics.states.record(static_cast<double>(result.num_states));
  }
  return result;
}

}  // namespace esched
