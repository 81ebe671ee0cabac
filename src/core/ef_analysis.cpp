#include "core/ef_analysis.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "qbd/qbd.hpp"
#include "queueing/mm1.hpp"

namespace esched {

ResponseTimeAnalysis analyze_elastic_first(const SystemParams& params,
                                           BusyFitOrder fit_order) {
  params.validate();
  ESCHED_CHECK(params.stable(), "EF analysis requires rho < 1");
  ESCHED_CHECK(params.elastic_cap == 0 || params.elastic_cap == params.k,
               "the busy-period analysis covers the fully elastic model; "
               "use solve_exact_ctmc or the simulator for bounded caps");
  const double kd = static_cast<double>(params.k);

  ResponseTimeAnalysis out;

  // Elastic class: exact M/M/1 with arrival lambda_E and service k mu_E.
  const MM1 elastic_queue(params.lambda_e, kd * params.mu_e);
  out.mean_jobs_e = params.lambda_e > 0.0 ? elastic_queue.mean_jobs() : 0.0;
  out.mean_response_time_e = elastic_queue.mean_response_time();

  // Degenerate case: no elastic traffic means the inelastic class is an
  // M/M/k-like birth-death chain with no suspensions; the QBD below still
  // handles it, but the busy-period fit needs lambda_E > 0 to be
  // meaningful. With lambda_E == 0 the idle phase simply never leaves.
  Coxian2Params fit{1.0, 1.0, 0.0};
  if (params.lambda_e > 0.0) {
    fit = fit_busy_period(elastic_queue.busy_period_moments(), fit_order);
  }
  out.busy_period_fit = fit;

  // QBD: level = #inelastic, phases {0: no elastic jobs, 1: busy-period
  // phase 1, 2: busy-period phase 2}. Inelastic jobs are served (at rate
  // min(level, k) mu_I) only in phase 0; the boundary levels 0..k-1 differ
  // from the repeating part only through that service rate.
  constexpr std::size_t kPhases = 3;
  QbdProcess process;
  process.num_phases = kPhases;
  process.first_repeating = static_cast<std::size_t>(params.k);

  Matrix up(kPhases, kPhases);
  for (std::size_t s = 0; s < kPhases; ++s) up(s, s) = params.lambda_i;

  Matrix local(kPhases, kPhases);
  if (params.lambda_e > 0.0) {
    local(0, 1) = params.lambda_e;          // elastic arrival opens a busy period
    local(1, 0) = fit.nu1 * (1.0 - fit.p);  // Coxian absorbs from phase 1
    local(1, 2) = fit.nu1 * fit.p;          // ... or continues to phase 2
    local(2, 0) = fit.nu2;                  // Coxian absorbs from phase 2
  }

  auto down_at = [&](std::size_t level) {
    Matrix down(kPhases, kPhases);
    const double busy_servers =
        std::min(static_cast<double>(level), kd);
    down(0, 0) = busy_servers * params.mu_i;  // inelastic completion
    return down;
  };

  process.up.reserve(process.first_repeating);
  process.local.reserve(process.first_repeating);
  process.down.reserve(process.first_repeating);
  for (std::size_t l = 0; l < process.first_repeating; ++l) {
    process.up.push_back(up);
    process.local.push_back(local);
    process.down.push_back(down_at(l));
  }
  process.rep_up = std::move(up);
  process.rep_local = std::move(local);
  process.rep_down = down_at(static_cast<std::size_t>(params.k));

  const QbdSolution sol = solve_qbd(process);
  out.qbd_iterations = sol.r_iterations;
  out.qbd_residual = sol.r_residual;

  out.mean_jobs_i = sol.mean_level;
  out.mean_response_time_i =
      params.lambda_i > 0.0 ? out.mean_jobs_i / params.lambda_i : 0.0;

  const double total_lambda = params.lambda_i + params.lambda_e;
  ESCHED_CHECK(total_lambda > 0.0, "analysis requires some arrivals");
  out.mean_response_time = (out.mean_jobs_i + out.mean_jobs_e) / total_lambda;
  return out;
}

}  // namespace esched
