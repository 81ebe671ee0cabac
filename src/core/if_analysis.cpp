#include "core/if_analysis.hpp"

#include <utility>

#include "common/error.hpp"
#include "qbd/qbd.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"

namespace esched {

ResponseTimeAnalysis analyze_inelastic_first(const SystemParams& params,
                                             BusyFitOrder fit_order) {
  params.validate();
  ESCHED_CHECK(params.stable(), "IF analysis requires rho < 1");
  ESCHED_CHECK(params.elastic_cap == 0 || params.elastic_cap == params.k,
               "the busy-period analysis covers the fully elastic model; "
               "use solve_exact_ctmc or the simulator for bounded caps");
  const double kd = static_cast<double>(params.k);
  const auto k = static_cast<std::size_t>(params.k);

  ResponseTimeAnalysis out;

  // Inelastic class: exact M/M/k.
  const MMk inelastic_queue(params.lambda_i, params.mu_i, params.k);
  out.mean_jobs_i =
      params.lambda_i > 0.0 ? inelastic_queue.mean_jobs() : 0.0;
  out.mean_response_time_i = inelastic_queue.mean_response_time();

  // Busy period of the inelastic count above k-1: M/M/1(lambda_I, k mu_I).
  Coxian2Params fit{1.0, 1.0, 0.0};
  if (params.lambda_i > 0.0) {
    const MM1 excursion(params.lambda_i, kd * params.mu_i);
    fit = fit_busy_period(excursion.busy_period_moments(), fit_order);
  }
  out.busy_period_fit = fit;

  // QBD: level = #elastic; phases 0..k-1 give the inelastic count, phases
  // k and k+1 are the Coxian busy-period stages (inelastic count >= k).
  const std::size_t phases = k + 2;
  const std::size_t b1 = k;
  const std::size_t b2 = k + 1;

  Matrix up(phases, phases);
  for (std::size_t s = 0; s < phases; ++s) up(s, s) = params.lambda_e;

  Matrix local(phases, phases);
  for (std::size_t i = 0; i < k; ++i) {
    // Inelastic arrival: i -> i+1, or into the busy period from i = k-1.
    if (i + 1 < k) {
      local(i, i + 1) = params.lambda_i;
    } else {
      local(i, b1) = params.lambda_i;
    }
    // Inelastic completion: i -> i-1 at rate i mu_I.
    if (i >= 1) local(i, i - 1) = static_cast<double>(i) * params.mu_i;
  }
  if (params.lambda_i > 0.0) {
    local(b1, b2) = fit.nu1 * fit.p;          // busy period continues
    local(b1, k - 1) = fit.nu1 * (1.0 - fit.p);  // busy period ends
    local(b2, k - 1) = fit.nu2;
  }

  // Elastic service: (k - i) mu_E in phase i (only when a level below
  // exists); zero during busy periods.
  Matrix rep_down(phases, phases);
  for (std::size_t i = 0; i < k; ++i) {
    rep_down(i, i) = (kd - static_cast<double>(i)) * params.mu_e;
  }

  QbdProcess process;
  process.num_phases = phases;
  process.first_repeating = 1;
  process.up.push_back(up);
  process.local.push_back(local);
  process.down.emplace_back(phases, phases);  // no level below 0
  process.rep_up = std::move(up);
  process.rep_local = std::move(local);
  process.rep_down = std::move(rep_down);

  const QbdSolution sol = solve_qbd(process);
  out.qbd_iterations = sol.r_iterations;
  out.qbd_residual = sol.r_residual;

  out.mean_jobs_e = sol.mean_level;
  out.mean_response_time_e =
      params.lambda_e > 0.0 ? out.mean_jobs_e / params.lambda_e : 0.0;

  const double total_lambda = params.lambda_i + params.lambda_e;
  ESCHED_CHECK(total_lambda > 0.0, "analysis requires some arrivals");
  out.mean_response_time = (out.mean_jobs_i + out.mean_jobs_e) / total_lambda;
  return out;
}

}  // namespace esched
