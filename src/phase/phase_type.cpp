#include "phase/phase_type.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "linalg/lu.hpp"
#include "rng/distributions.hpp"

namespace esched {

PhaseType::PhaseType(Vector alpha, Matrix t)
    : alpha_(std::move(alpha)), t_(std::move(t)) {
  const std::size_t m = alpha_.size();
  ESCHED_CHECK(m > 0, "PH distribution needs at least one phase");
  ESCHED_CHECK(t_.rows() == m && t_.cols() == m,
               "sub-generator shape must match alpha");
  double alpha_sum = 0.0;
  for (double a : alpha_) {
    ESCHED_CHECK(a >= -1e-12, "alpha entries must be non-negative");
    alpha_sum += a;
  }
  ESCHED_CHECK(std::abs(alpha_sum - 1.0) < 1e-9, "alpha must sum to 1");

  exit_.assign(m, 0.0);
  bool any_exit = false;
  for (std::size_t r = 0; r < m; ++r) {
    ESCHED_CHECK(t_(r, r) < 0.0, "sub-generator diagonal must be negative");
    double row_sum = 0.0;
    for (std::size_t c = 0; c < m; ++c) {
      if (c != r) {
        ESCHED_CHECK(t_(r, c) >= 0.0,
                     "sub-generator off-diagonals must be non-negative");
      }
      row_sum += t_(r, c);
    }
    ESCHED_CHECK(row_sum <= 1e-9, "sub-generator row sums must be <= 0");
    exit_[r] = std::max(0.0, -row_sum);
    if (exit_[r] > 0.0) any_exit = true;
  }
  ESCHED_CHECK(any_exit, "absorption must be reachable");
}

double PhaseType::raw_moment(int n) const {
  ESCHED_CHECK(n >= 1, "moment order must be >= 1");
  // E[X^n] = n! alpha (-T)^{-n} 1: repeatedly solve (-T) y_{k} = y_{k-1}.
  Matrix neg_t = t_;
  neg_t *= -1.0;
  const LuFactorization lu(std::move(neg_t));
  Vector y(num_phases(), 1.0);
  double factorial = 1.0;
  for (int k = 1; k <= n; ++k) {
    y = lu.solve(y);
    factorial *= static_cast<double>(k);
  }
  return factorial * dot(alpha_, y);
}

Moments3 PhaseType::moments3() const {
  return {raw_moment(1), raw_moment(2), raw_moment(3)};
}

double PhaseType::variance() const {
  const double m1 = raw_moment(1);
  return raw_moment(2) - m1 * m1;
}

double PhaseType::scv() const {
  const double m1 = raw_moment(1);
  return variance() / (m1 * m1);
}

double PhaseType::sample(Xoshiro256& rng) const {
  const std::size_t m = num_phases();
  // Choose the initial phase.
  std::size_t phase = 0;
  {
    double target = uniform_open01(rng);
    double cum = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      cum += alpha_[s];
      if (target <= cum) {
        phase = s;
        break;
      }
      phase = s;
    }
  }
  double time = 0.0;
  for (;;) {
    const double total_rate = -t_(phase, phase);
    // Qualified call: PhaseType::exponential (the factory) shadows the free
    // sampling function inside member scope.
    time += ::esched::exponential(rng, total_rate);
    // Pick the next phase or absorb, proportionally to the rates.
    double target = uniform_open01(rng) * total_rate;
    target -= exit_[phase];
    if (target <= 0.0) return time;
    bool moved = false;
    for (std::size_t s = 0; s < m; ++s) {
      if (s == phase) continue;
      target -= t_(phase, s);
      if (target <= 0.0) {
        phase = s;
        moved = true;
        break;
      }
    }
    ESCHED_ASSERT(moved, "phase transition selection failed");
  }
}

PhaseType PhaseType::scaled_by(double time_scale) const {
  ESCHED_CHECK(time_scale > 0.0 && is_finite(time_scale),
               "time scale must be positive and finite");
  Matrix t = t_;
  t *= 1.0 / time_scale;
  return PhaseType(alpha_, std::move(t));
}

PhaseType PhaseType::exponential(double rate) {
  ESCHED_CHECK(rate > 0.0, "rate must be positive");
  Matrix t(1, 1);
  t(0, 0) = -rate;
  return PhaseType(Vector{1.0}, std::move(t));
}

PhaseType PhaseType::erlang(int stages, double rate) {
  ESCHED_CHECK(stages >= 1, "Erlang needs at least one stage");
  ESCHED_CHECK(rate > 0.0, "rate must be positive");
  const auto m = static_cast<std::size_t>(stages);
  Matrix t(m, m);
  for (std::size_t s = 0; s < m; ++s) {
    t(s, s) = -rate;
    if (s + 1 < m) t(s, s + 1) = rate;
  }
  Vector alpha(m, 0.0);
  alpha[0] = 1.0;
  return PhaseType(std::move(alpha), std::move(t));
}

PhaseType PhaseType::hyperexponential(const Vector& probs,
                                      const Vector& rates) {
  ESCHED_CHECK(!probs.empty() && probs.size() == rates.size(),
               "probs/rates must be non-empty and equal length");
  const std::size_t m = probs.size();
  Matrix t(m, m);
  for (std::size_t s = 0; s < m; ++s) {
    ESCHED_CHECK(rates[s] > 0.0, "rates must be positive");
    t(s, s) = -rates[s];
  }
  return PhaseType(probs, std::move(t));
}

PhaseType PhaseType::coxian2(double nu1, double nu2, double p) {
  ESCHED_CHECK(nu1 > 0.0 && nu2 > 0.0, "Coxian rates must be positive");
  ESCHED_CHECK(p >= 0.0 && p <= 1.0, "branch probability must be in [0,1]");
  Matrix t(2, 2);
  t(0, 0) = -nu1;
  t(0, 1) = nu1 * p;
  t(1, 1) = -nu2;
  return PhaseType(Vector{1.0, 0.0}, std::move(t));
}

PhaseType PhaseType::coxian(const Vector& rates, const Vector& continue_probs) {
  const std::size_t m = rates.size();
  ESCHED_CHECK(m >= 1, "Coxian needs at least one phase");
  ESCHED_CHECK(continue_probs.size() == m - 1,
               "need one continue probability per non-final phase");
  Matrix t(m, m);
  for (std::size_t s = 0; s < m; ++s) {
    ESCHED_CHECK(rates[s] > 0.0, "Coxian rates must be positive");
    t(s, s) = -rates[s];
    if (s + 1 < m) {
      ESCHED_CHECK(continue_probs[s] >= 0.0 && continue_probs[s] <= 1.0,
                   "continue probabilities must be in [0,1]");
      t(s, s + 1) = rates[s] * continue_probs[s];
    }
  }
  Vector alpha(m, 0.0);
  alpha[0] = 1.0;
  return PhaseType(std::move(alpha), std::move(t));
}

}  // namespace esched
