#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

using esched::RunPoint;
using esched::RunResult;
using esched::SolverKind;

/// The paper's accuracy claim for the busy-period QBD analysis (§5).
constexpr double kQbdError = 0.01;
/// Truncation boundary mass below which an exact chain stands for the
/// infinite one.
constexpr double kNegligibleBoundary = 1e-6;
/// Relative E[T] tolerance of the stationary solvers (SOR stops at a 1e-12
/// residual; direct solvers are tighter).
constexpr double kSolverTolerance = 1e-6;
/// QBD-only workloads compare this many grid points against exact solves.
constexpr std::size_t kExactSamples = 8;

bool base_model(const RunPoint& p) {
  return (p.policy == "IF" || p.policy == "EF") &&
         p.params.elastic_cap == 0 && p.options.size_dist_i.is_exponential() &&
         p.options.size_dist_e.is_exponential();
}

/// Identifies the (k, lambdas, mus, cap) a point runs at.
std::string params_key(const RunPoint& p) {
  RunPoint keyed = p;
  keyed.policy = std::string("IF");
  keyed.solver = SolverKind::kQbdAnalysis;
  return keyed.cache_key();
}

void add_check(OracleReport& report, std::size_t index, char oracle,
               double value, double reference, double tolerance) {
  ValueCheck check{index, oracle, value, reference, tolerance, true};
  check.passed = std::isfinite(value) &&
                 std::fabs(value - reference) <= tolerance;
  if (!check.passed) report.failed.insert(index);
  report.checks.push_back(check);
}

}  // namespace

double References::qbd(const RunPoint& point) {
  RunPoint q = point;
  q.solver = SolverKind::kQbdAnalysis;
  const std::string key = q.cache_key();
  const auto it = values_.find(key);
  if (it != values_.end()) return it->second;
  const double value = esched::dispatch_run(q).mean_response_time;
  values_.emplace(key, value);
  return value;
}

double References::exact(const RunPoint& point) {
  RunPoint q = point;
  q.solver = SolverKind::kExactCtmc;
  q.options.imax = 0;
  q.options.jmax = 0;
  q.options.truncation_epsilon = 1e-9;
  const std::string key = q.cache_key();
  const auto it = values_.find(key);
  if (it != values_.end()) return it->second;
  const double value = esched::dispatch_run(q).mean_response_time;
  values_.emplace(key, value);
  return value;
}

OracleReport check_values(const std::vector<RunPoint>& points,
                          const std::vector<RunResult>& results,
                          References& refs) {
  OracleReport report;
  std::set<std::string> exact_params;
  for (const RunPoint& p : points) {
    if (p.solver == SolverKind::kExactCtmc) exact_params.insert(params_key(p));
  }

  // (a) exact vs QBD, and (d) simulation vs QBD.
  for (std::size_t n = 0; n < points.size(); ++n) {
    const RunPoint& p = points[n];
    const RunResult& r = results[n];
    if (!base_model(p)) continue;
    if (p.solver == SolverKind::kExactCtmc &&
        r.boundary_mass < kNegligibleBoundary) {
      const double ref = refs.qbd(p);
      add_check(report, n, 'a', r.mean_response_time, ref, kQbdError * ref);
    } else if (p.solver == SolverKind::kSimulation) {
      const double ref = refs.qbd(p);
      add_check(report, n, 'd', r.mean_response_time, ref,
                r.ci_halfwidth + kQbdError * ref);
    }
  }

  // (a) for QBD points no exact point covers: an evenly spaced sample of
  // the loads whose exact chains stay small.
  std::vector<std::size_t> uncovered;
  for (std::size_t n = 0; n < points.size(); ++n) {
    const RunPoint& p = points[n];
    if (p.solver == SolverKind::kQbdAnalysis && base_model(p) &&
        p.params.rho() <= 0.75 && exact_params.count(params_key(p)) == 0) {
      uncovered.push_back(n);
    }
  }
  const std::size_t samples = std::min(kExactSamples, uncovered.size());
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t n = uncovered[s * uncovered.size() / samples];
    const double ref = refs.exact(points[n]);
    add_check(report, n, 'a', results[n].mean_response_time, ref,
              kQbdError * ref);
  }

  // (b) Theorem 5 on each exact chain topology, and its QBD form on IF/EF
  // pairs. Only policies whose own truncation is tight take part: a chain
  // that drops many arrivals at its boundary understates its E[T].
  std::map<std::string, std::size_t> if_exact;
  std::map<std::string, std::size_t> if_qbd;
  for (std::size_t n = 0; n < points.size(); ++n) {
    const RunPoint& p = points[n];
    if (p.policy != "IF" || p.params.mu_i < p.params.mu_e) continue;
    if (p.solver == SolverKind::kExactCtmc) {
      if_exact.emplace(esched::exact_topology_key(p), n);
    } else if (p.solver == SolverKind::kQbdAnalysis) {
      if_qbd.emplace(params_key(p), n);
    }
  }
  for (std::size_t n = 0; n < points.size(); ++n) {
    const RunPoint& p = points[n];
    if (p.policy == "IF") continue;
    if (p.solver == SolverKind::kExactCtmc &&
        results[n].boundary_mass < 1e-3) {
      const auto it = if_exact.find(esched::exact_topology_key(p));
      if (it == if_exact.end()) continue;
      const double other = results[n].mean_response_time;
      // One-sided: IF may be better by any margin, worse only by the
      // solver tolerance.
      const double if_et = results[it->second].mean_response_time;
      add_check(report, it->second, 'b', std::max(if_et, other), other,
                kSolverTolerance * other);
    } else if (p.solver == SolverKind::kQbdAnalysis && p.policy == "EF") {
      const auto it = if_qbd.find(params_key(p));
      if (it == if_qbd.end()) continue;
      const double ef_et = results[n].mean_response_time;
      const double if_et = results[it->second].mean_response_time;
      add_check(report, it->second, 'b', std::max(if_et, ef_et), ef_et,
                kQbdError * ef_et);
    }
  }

  // Tail percentiles of every simulated point are ordered and positive.
  for (std::size_t n = 0; n < points.size(); ++n) {
    if (points[n].solver != SolverKind::kSimulation) continue;
    const RunResult& r = results[n];
    const bool ordered = r.p50_i > 0.0 && r.p50_i <= r.p95_i &&
                         r.p95_i <= r.p99_i && r.p50_e > 0.0 &&
                         r.p50_e <= r.p95_e && r.p95_e <= r.p99_e &&
                         r.ci_halfwidth > 0.0;
    add_check(report, n, 't', ordered ? 0.0 : 1.0, 0.0, 0.0);
  }
  return report;
}

std::set<std::size_t> check_equal(const std::vector<RunResult>& reference,
                                  const std::vector<RunResult>& results) {
  std::set<std::size_t> bad;
  for (std::size_t n = 0; n < reference.size(); ++n) {
    if (n >= results.size() || !numerically_equal(reference[n], results[n])) {
      bad.insert(n);
    }
  }
  for (std::size_t n = reference.size(); n < results.size(); ++n) bad.insert(n);
  return bad;
}

std::set<std::size_t> csv_mismatches(const std::string& expected,
                                     const std::string& actual) {
  std::set<std::size_t> bad;
  if (expected == actual) return bad;
  std::istringstream a(expected);
  std::istringstream b(actual);
  std::string la;
  std::string lb;
  for (std::size_t line = 0;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (ga != gb || la != lb) bad.insert(line == 0 ? 0 : line - 1);
  }
  if (bad.empty()) bad.insert(0);
  return bad;
}

std::string self_test(const std::vector<RunPoint>& points,
                      const std::vector<RunResult>& results,
                      const OracleReport& report, const std::string& csv,
                      References& refs, bool* ok) {
  *ok = false;
  // The tightest value check: a 2% shift must leave its band.
  const ValueCheck* tightest = nullptr;
  for (const ValueCheck& c : report.checks) {
    if ((c.oracle != 'a' && c.oracle != 'd') || !c.passed) continue;
    if (tightest == nullptr ||
        c.tolerance / c.reference < tightest->tolerance / tightest->reference) {
      tightest = &c;
    }
  }
  // Shifting away from the reference moves the value by more than 2%, so
  // a band narrower than that is left for certain.
  if (tightest == nullptr || tightest->tolerance > 0.019 * tightest->value) {
    return "FAILED: no value check is tight enough to catch a 2% shift";
  }
  std::vector<RunResult> shifted = results;
  const double sign = tightest->value >= tightest->reference ? 1.0 : -1.0;
  shifted[tightest->index].mean_response_time *= 1.0 + sign * 0.02;
  const bool shift_caught =
      check_values(points, shifted, refs).failed.count(tightest->index) != 0;

  std::vector<RunResult> corrupted = results;
  const std::size_t victim = results.size() / 2;
  corrupted[victim].mean_response_time = std::nextafter(
      corrupted[victim].mean_response_time,
      std::numeric_limits<double>::infinity());
  const bool result_caught = check_equal(results, corrupted).count(victim) != 0;

  std::string bytes = csv;
  const std::size_t digit = bytes.find_first_of("0123456789", bytes.find('\n'));
  bool csv_caught = false;
  if (digit != std::string::npos) {
    bytes[digit] = bytes[digit] == '9' ? '8' : static_cast<char>(bytes[digit] + 1);
    csv_caught = !csv_mismatches(csv, bytes).empty();
  }

  *ok = shift_caught && result_caught && csv_caught;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: +-2%% E[T] shift of point %zu (oracle %c) %s; corrupted "
                "warm result %zu %s; corrupted CSV byte %s",
                *ok ? "passed" : "FAILED", tightest->index, tightest->oracle,
                shift_caught ? "caught" : "MISSED", victim,
                result_caught ? "caught" : "MISSED",
                csv_caught ? "caught" : "MISSED");
  return line;
}

}  // namespace perfbench
