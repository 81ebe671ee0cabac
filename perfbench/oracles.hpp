// Correctness oracles grounded in the paper. They compare values within
// tolerances, never golden bytes, so a solver change that moves the 12th
// digit of a result stays legal:
//   (a) exact E[T] of IF/EF within the paper's 1% of the QBD analysis,
//       where the truncation boundary holds negligible mass;
//   (b) Theorem 5: for mu_I >= mu_E, IF's exact E[T] is no larger than any
//       other policy's on the same chain, up to solver tolerance;
//   (c) a warm rerun reproduces the cold sweep exactly (numerically_equal
//       results, identical CSV bytes);
//   (d) simulated E[T] with exponential sizes lies within its 95% CI plus
//       the QBD's 1% error of the QBD value.
// QBD-only grids get (a) on a sample of points against exact solves, and
// Theorem 5 between the IF and EF QBD values (IF no worse than EF by more
// than the 1% analysis error).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/solver_dispatch.hpp"

namespace perfbench {

/// Reference values computed outside every timed or traced sweep.
class References {
 public:
  /// QBD-analysis E[T] at the point's parameters and policy.
  double qbd(const esched::RunPoint& point);
  /// Exact-chain E[T] at the point's parameters and policy, truncated where
  /// the boundary mass falls below 1e-9.
  double exact(const esched::RunPoint& point);

 private:
  std::map<std::string, double> values_;
};

/// One value comparison: |value - reference| <= tolerance.
struct ValueCheck {
  std::size_t index = 0;
  char oracle = 'a';
  double value = 0.0;
  double reference = 0.0;
  double tolerance = 0.0;
  bool passed = true;
};

struct OracleReport {
  std::vector<ValueCheck> checks;
  std::set<std::size_t> failed;  ///< point indices failing any oracle
};

/// Oracles (a), (b), (d) and the QBD-grid checks over one result set.
OracleReport check_values(const std::vector<esched::RunPoint>& points,
                          const std::vector<esched::RunResult>& results,
                          References& refs);

/// Oracle (c): indices whose result is not numerically_equal to the
/// reference result set.
std::set<std::size_t> check_equal(const std::vector<esched::RunResult>& reference,
                                  const std::vector<esched::RunResult>& results);

/// Oracle (c) on report bytes: the data rows (0-based point indices) on
/// which two CSV reports differ; a difference outside the rows (header,
/// summary trailer) blames row 0.
std::set<std::size_t> csv_mismatches(const std::string& expected,
                                     const std::string& actual);

/// Proves the oracles live on this run's data: shifts the E[T] of the most
/// tightly checked point by 2% and corrupts one warm result and one CSV
/// byte; each must be caught. Sets *ok and returns a one-line account.
std::string self_test(const std::vector<esched::RunPoint>& points,
                      const std::vector<esched::RunResult>& results,
                      const OracleReport& report, const std::string& csv,
                      References& refs, bool* ok);

}  // namespace perfbench
