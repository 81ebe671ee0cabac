#include "phase/fit.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace esched {

PhaseType Coxian2Params::to_phase_type() const {
  return PhaseType::coxian2(nu1, nu2, p);
}

namespace {

void check_raw_moments(const Moments3& m) {
  ESCHED_CHECK(m.m1 > 0.0 && m.m2 > 0.0 && m.m3 > 0.0,
               "moments must be positive");
  // Any distribution satisfies m2 >= m1^2 (Jensen).
  ESCHED_CHECK(m.m2 >= m.m1 * m.m1 * (1.0 - 1e-9),
               "m2 < m1^2 is not a valid moment sequence");
}

/// The Coxian-2 third-moment lower bound for SCV >= 1 inputs.
double m3_lower_bound(const Moments3& m) {
  return 1.5 * m.m2 * m.m2 / m.m1;
}

/// True on the SCV == 1 boundary of the Coxian-2 region, where the family
/// degenerates: the only matchable point there is the exponential. Shared
/// by fit_coxian2 (which requires exponential_m3 there) and fit_moments3
/// (which falls back before calling it) so the two can never desync.
bool scv1_boundary(const Moments3& m) {
  return m.m2 <= 2.0 * m.m1 * m.m1 * (1.0 + 1e-9);
}

/// True when m3 is (numerically) the exponential's 6 m1^3.
bool exponential_m3(const Moments3& m) {
  return approx_equal(m.m3, 6.0 * m.m1 * m.m1 * m.m1, 1e-6);
}

}  // namespace

bool coxian2_feasible(const Moments3& m) {
  if (m.m1 <= 0.0 || m.m2 <= 0.0 || m.m3 <= 0.0) return false;
  if (m.m2 < 2.0 * m.m1 * m.m1 * (1.0 - 1e-9)) return false;  // SCV < 1
  return m.m3 >= m3_lower_bound(m) * (1.0 - 1e-9);
}

Coxian2Params fit_coxian2(const Moments3& moments) {
  check_raw_moments(moments);
  ESCHED_CHECK(coxian2_feasible(moments),
               "moments are not matchable by a two-phase Coxian");
  Moments3 m = moments;
  // Nudge an exactly-boundary third moment into the interior; the boundary
  // corresponds to a degenerate (infinite-rate) first phase.
  const double bound = m3_lower_bound(m);
  if (m.m3 < bound * (1.0 + 1e-12)) m.m3 = bound * (1.0 + 1e-9);

  // Degenerate boundary SCV == 1: the only Coxian-2-matchable point there
  // is the exponential (m3 == 6 m1^3). Handle it before the root search —
  // the bracket endpoint x -> m1 becomes 0/0 in this case.
  if (scv1_boundary(m)) {
    ESCHED_CHECK(exponential_m3(m),
                 "SCV == 1 moments are Coxian-2-matchable only at the "
                 "exponential point");
    return {1.0 / m.m1, 1.0 / m.m1, 0.0};
  }

  // Parametrize by x = 1/nu1 in (0, m1). With q = m1 - x and
  // y = (m2/2 - x^2)/q - x (so that the second moment matches), the third
  // moment matches iff F(x) = x^3 + q (x^2 + x y + y^2) - m3/6 = 0.
  // Feasibility gives F(0+) <= 0 and SCV > 1 gives F(m1-) -> +inf, so a
  // root exists in the bracket; bisection is robust against the pole at m1.
  const auto eval_y = [&](double x) {
    const double q = m.m1 - x;
    return (0.5 * m.m2 - x * x) / q - x;
  };
  const auto f = [&](double x) {
    const double q = m.m1 - x;
    const double y = eval_y(x);
    return x * x * x + q * (x * x + x * y + y * y) - m.m3 / 6.0;
  };

  double lo = m.m1 * 1e-12;
  double hi = m.m1 * (1.0 - 1e-12);
  double flo = f(lo);
  ESCHED_ASSERT(flo <= 0.0 || flo < m.m3 * 1e-9,
                "Coxian-2 bracket lower endpoint has unexpected sign");
  if (flo > 0.0) lo = 0.0;  // boundary-degenerate; bisection still works
  // Walk `hi` down until f(hi) > 0 is representable (the pole guarantees
  // positivity near m1, but 1 - 1e-12 may overflow to inf — that is fine).
  double fhi = f(hi);
  ESCHED_ASSERT(fhi > 0.0 || std::isinf(fhi),
                "Coxian-2 bracket upper endpoint has unexpected sign");

  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // lo and hi are adjacent doubles, so mid rounded onto one of them and
    // f(mid) has that endpoint's sign: this and every further step would
    // leave (lo, hi) as it is, though it can be wider than the test below.
    if (mid == lo || mid == hi) break;
    const double fmid = f(mid);
    if (fmid <= 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-16 * m.m1) break;
  }
  const double x = 0.5 * (lo + hi);
  const double q = m.m1 - x;
  const double y = eval_y(x);
  ESCHED_ASSERT(x > 0.0 && q > 0.0 && y > 0.0,
                "Coxian-2 solution outside the feasible region");
  Coxian2Params params;
  params.nu1 = 1.0 / x;
  params.nu2 = 1.0 / y;
  params.p = clamp(q / y, 0.0, 1.0);
  return params;
}

PhaseType fit_moments3(const Moments3& m) {
  check_raw_moments(m);
  if (coxian2_feasible(m)) {
    // The SCV == 1 boundary of the Coxian-2 region contains only the
    // exponential: an off-exponential third moment there (e.g. the
    // lognormal with SCV 1, m3 = 8 m1^3) is unmatchable by the family, so
    // fall back to the exponential — m1 and m2 exact, m3 as close as a
    // one-parameter family gets.
    if (!scv1_boundary(m) || exponential_m3(m)) {
      return fit_coxian2(m).to_phase_type();
    }
    return PhaseType::exponential(1.0 / m.m1);
  }

  // SCV < 1: mixed-Erlang two-moment fit (Tijms). Pick n with
  // 1/n <= scv < 1/(n-1); the result is Erlang(n-1) w.p. q, Erlang(n)
  // otherwise, common rate lambda = (n - q)/m1 — representable as a Coxian
  // whose (n-1)-th stage exits early with probability q. Matches m1 and m2
  // exactly; m3 is approximate (the family has no third free parameter).
  const double scv = m.m2 / (m.m1 * m.m1) - 1.0;
  ESCHED_CHECK(scv > 0.0, "deterministic distributions are not supported");
  const int n = std::max(2, static_cast<int>(std::ceil(1.0 / scv)));
  const double nd = static_cast<double>(n);
  const double q =
      (nd * scv - std::sqrt(nd * (1.0 + scv) - nd * nd * scv)) / (1.0 + scv);
  const double rate = (nd - q) / m.m1;
  Vector rates(static_cast<std::size_t>(n), rate);
  Vector cont(static_cast<std::size_t>(n) - 1, 1.0);
  cont.back() = 1.0 - q;
  return PhaseType::coxian(rates, cont);
}

}  // namespace esched
