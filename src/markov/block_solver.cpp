#include "markov/block_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/invariants.hpp"
#include "linalg/lu.hpp"

namespace esched {

namespace {

/// Per-state (level, index-within-level) coordinates plus the per-level
/// state lists. Within a level, states keep ascending global order, so the
/// construction is deterministic.
struct LevelPartition {
  std::vector<std::uint32_t> level;       // = level_of (validated)
  std::vector<std::size_t> local;         // index within the level
  std::vector<std::vector<std::size_t>> states;  // per level, ascending
};

LevelPartition partition_levels(const std::vector<std::uint32_t>& level_of,
                                std::size_t n) {
  ESCHED_CHECK(level_of.size() == n, "level_of dimension mismatch");
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  LevelPartition p;
  p.level = level_of;
  p.local.resize(n);
  p.states.resize(num_levels);
  for (std::size_t s = 0; s < n; ++s) {
    p.local[s] = p.states[level_of[s]].size();
    p.states[level_of[s]].push_back(s);
  }
  for (std::size_t l = 0; l < num_levels; ++l) {
    ESCHED_CHECK(!p.states[l].empty(),
                 "level " + std::to_string(l) +
                     " is empty: levels must be contiguous 0..L-1 (the "
                     "chain is reducible across levels)");
  }
  return p;
}

/// File-local LU for the censored level generators (-S)^T. Same pivoting
/// and singularity conventions as LuFactorization, but tuned for this
/// caller: the update loop touches only the nonzero entries of the pivot
/// row, and the factors are compressed into CSR-style column/row arrays
/// for the many solves that follow. The level generators are banded except
/// in the few fold-modified columns (see the backward sweep), and (-S)^T is
/// column-wise diagonally dominant, so pivoting essentially never swaps
/// and the elimination preserves the caller's dense-rows-last ordering —
/// the factors stay near the sparsity of the inputs instead of filling.
class FoldFactor {
 public:
  explicit FoldFactor(Matrix g) {
    const std::size_t n = g.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    std::vector<std::size_t> urow;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(g(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(g(r, col));
        if (cand > best) {
          best = cand;
          pivot = r;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) std::swap(g(pivot, c), g(col, c));
        std::swap(perm_[pivot], perm_[col]);
      }
      const double inv_diag = 1.0 / g(col, col);
      urow.clear();
      for (std::size_t c = col + 1; c < n; ++c) {
        if (g(col, c) != 0.0) urow.push_back(c);
      }
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = g(r, col) * inv_diag;
        g(r, col) = factor;
        if (factor == 0.0) continue;
        for (const std::size_t c : urow) g(r, c) -= factor * g(col, c);
      }
    }
    diag_.resize(n);
    l_cols_.begin(n);
    u_rows_.begin(n);
    for (std::size_t r = 0; r < n; ++r) {
      diag_[r] = g(r, r);
      for (std::size_t c = r + 1; c < n; ++c) {
        if (g(r, c) != 0.0) u_rows_.push(c, g(r, c));
        if (g(c, r) != 0.0) l_cols_.push(c, g(c, r));
      }
      u_rows_.next_line();
      l_cols_.next_line();
    }
    u_rows_.finish();
    l_cols_.finish();
  }

  std::size_t dim() const { return diag_.size(); }

  /// Solves G x = b.
  Vector solve(const Vector& b) const {
    const std::size_t n = dim();
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[r] = b[perm_[r]];
    for (std::size_t k = 0; k < n; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      for (std::size_t e = l_cols_.ptr[k]; e < l_cols_.ptr[k + 1]; ++e) {
        x[l_cols_.index[e]] -= l_cols_.value[e] * xk;
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = x[k];
      for (std::size_t e = u_rows_.ptr[k]; e < u_rows_.ptr[k + 1]; ++e) {
        acc -= u_rows_.value[e] * x[u_rows_.index[e]];
      }
      x[k] = acc / diag_[k];
    }
    return x;
  }

  /// Solves G^T x = b (G = P^T L U ⇒ G^T = U^T L^T P).
  Vector solve_transposed(const Vector& b) const {
    const std::size_t n = dim();
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
      const double yk = y[k] / diag_[k];
      y[k] = yk;
      if (yk == 0.0) continue;
      for (std::size_t e = u_rows_.ptr[k]; e < u_rows_.ptr[k + 1]; ++e) {
        y[u_rows_.index[e]] -= u_rows_.value[e] * yk;
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = y[k];
      for (std::size_t e = l_cols_.ptr[k]; e < l_cols_.ptr[k + 1]; ++e) {
        acc -= l_cols_.value[e] * y[l_cols_.index[e]];
      }
      y[k] = acc;
    }
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[perm_[r]] = y[r];
    return x;
  }

 private:
  /// One compressed factor: the entries of line k (a column of L or a row
  /// of U) are index/value[ptr[k] .. ptr[k+1]), in ascending index order.
  struct Compressed {
    std::vector<std::size_t> ptr;
    std::vector<std::uint32_t> index;
    std::vector<double> value;

    void begin(std::size_t lines) {
      ptr.reserve(lines + 1);
      ptr.push_back(0);
    }
    void push(std::size_t i, double v) {
      index.push_back(static_cast<std::uint32_t>(i));
      value.push_back(v);
    }
    void next_line() { ptr.push_back(index.size()); }
    /// Drops the growth slack: every level's factor stays alive until
    /// the forward pass, so slack would add up across levels.
    void finish() {
      index.shrink_to_fit();
      value.shrink_to_fit();
    }
  };

  std::vector<std::size_t> perm_;
  Vector diag_;
  /// Strict lower factor by column / strict upper factor by row.
  Compressed l_cols_;
  Compressed u_rows_;
};

/// A level's factored censored generator: FoldFactor over (-S_{l+1})^T
/// symmetrically permuted so the fold-densified indices come last (banded
/// elimination first, dense fill confined to the trailing block).
struct LevelFactor {
  std::vector<std::size_t> order;  ///< permuted index -> level-local index
  std::optional<FoldFactor> factor;

  Vector solve(const Vector& v) const {
    return unpermute(factor->solve(permute(v)));
  }
  Vector solve_transposed(const Vector& v) const {
    return unpermute(factor->solve_transposed(permute(v)));
  }

  Vector permute(const Vector& v) const {
    Vector p(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) p[i] = v[order[i]];
    return p;
  }
  Vector unpermute(const Vector& p) const {
    Vector v(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) v[order[i]] = p[i];
    return v;
  }
};

}  // namespace

std::size_t block_solver_workspace_bytes(
    const std::vector<std::uint32_t>& level_of) {
  if (level_of.empty()) return 0;
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  std::vector<std::size_t> size(static_cast<std::size_t>(max_level) + 1, 0);
  for (std::uint32_t l : level_of) ++size[l];
  std::size_t doubles = 0;
  std::size_t max_block = 0;
  for (std::size_t l = 0; l < size.size(); ++l) {
    max_block = std::max(max_block, size[l]);
    if (l > 0) doubles += size[l] * size[l];  // kept LU factor of -S_l^T
  }
  doubles += 3 * max_block * max_block;  // S, its transpose, next scratch
  return doubles * sizeof(double);
}

double block_solver_flop_estimate(const CsrMatrix& rates,
                                  const std::vector<std::uint32_t>& level_of) {
  const std::size_t n = rates.rows();
  if (n == 0 || level_of.size() != n) return 0.0;
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  std::vector<double> size(num_levels, 0.0);
  for (std::uint32_t l : level_of) size[l] += 1.0;
  // m_l = distinct level-l states hit by a down-transition; these are the
  // columns the fold densifies when level l's censored block is factored.
  std::vector<char> is_target(n, 0);
  std::vector<double> dense(num_levels, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t t = to[k];
      if (level_of[t] + 1 == level_of[s] && is_target[t] == 0) {
        is_target[t] = 1;
        dense[level_of[t]] += 1.0;
      }
    }
  }
  double flops = size[0] * size[0] * size[0];  // dense GTH on S_0
  for (std::size_t l = 1; l < num_levels; ++l) {
    flops += size[l] * dense[l] * dense[l] + dense[l] * dense[l] * dense[l];
  }
  return flops;
}

Vector block_tridiagonal_stationary(const CsrMatrix& rates,
                                    const Vector& exit_rates,
                                    const std::vector<std::uint32_t>& level_of,
                                    StationarySolveInfo* info) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  const std::size_t n = rates.rows();
  ESCHED_CHECK(exit_rates.size() == n, "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(
      check_generator(rates, exit_rates, "block_tridiagonal_stationary"));
  const LevelPartition part = partition_levels(level_of, n);
  const std::size_t num_levels = part.states.size();

  // Validate the level structure once up front so the elimination below
  // can assume |level(from) - level(to)| <= 1, and that every level can be
  // left downwards at all — a level with no down-transitions makes the
  // censored blocks exactly singular (everything below it is transient),
  // which the direct elimination cannot represent; callers fall back to an
  // iterative solver for such chains.
  std::vector<bool> has_down(num_levels, false);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) {
      const long diff = static_cast<long>(part.level[s]) -
                        static_cast<long>(part.level[to[k]]);
      ESCHED_CHECK(diff >= -1 && diff <= 1,
                   "transition " + std::to_string(s) + " -> " +
                       std::to_string(to[k]) + " jumps from level " +
                       std::to_string(part.level[s]) + " to level " +
                       std::to_string(part.level[to[k]]) +
                       ": the chain is not level-structured");
      if (diff == 1) has_down[part.level[s]] = true;
    }
  }
  for (std::size_t l = 1; l < num_levels; ++l) {
    ESCHED_CHECK(has_down[l],
                 "level " + std::to_string(l) +
                     " has no transitions to level " + std::to_string(l - 1) +
                     ": the chain is reducible across levels (everything "
                     "below is transient); use an iterative solver");
  }

  // Dense within-level block A_l with the implied diagonal -exit. Exit
  // rates include transitions to *other* levels, so the diagonal of S_l
  // carries the escape mass GTH later treats as censored.
  const auto level_block = [&](std::size_t l) {
    const std::vector<std::size_t>& states = part.states[l];
    const std::size_t b = states.size();
    Matrix a(b, b);
    for (std::size_t r = 0; r < b; ++r) {
      const std::size_t u = states[r];
      a(r, r) = -exit_rates[u];
      const std::size_t* to = rates.row_cols(u);
      const double* rate = rates.row_values(u);
      const std::size_t nnz = rates.row_nnz(u);
      for (std::size_t k = 0; k < nnz; ++k) {
        if (part.level[to[k]] == l) a(r, part.local[to[k]]) += rate[k];
      }
    }
    return a;
  };

  // Backward sweep: S starts as A_{L-1}; each step folds level l+1 into
  // level l. The expected-visits factor R_l = B_l (-S_{l+1})^{-1} is never
  // formed densely: the fold S_l = A_l + R_l C_{l+1} needs only
  // X = (-S_{l+1})^{-1} C_{l+1} — one triangular solve per nonzero COLUMN
  // of C, and down-transitions land on few level-l states — and the
  // forward pass needs only pi_l R_l, one solve against the kept factor
  // per level. That replaces b solves per level (every row of R) with
  // ~|cols(C)| + 1, which is what makes the direct solve beat SOR on the
  // phase-augmented chains.
  std::vector<std::optional<LevelFactor>> up_factor(
      num_levels > 0 ? num_levels - 1 : 0);
  Matrix s_block = level_block(num_levels - 1);
  // Columns of the current s_block that a fold has touched: A_l is sparse,
  // and the fold only densifies the columns that receive down-transitions,
  // so marking them lets each factorization order the dense part last.
  std::vector<bool> fold_marks(part.states[num_levels - 1].size(), false);
  Vector rhs;
  for (std::size_t l = num_levels - 1; l-- > 0;) {
    const std::vector<std::size_t>& states = part.states[l];
    const std::vector<std::size_t>& above = part.states[l + 1];
    const std::size_t b = states.size();
    const std::size_t b_up = above.size();

    // Factor G = (-S_{l+1})^T: solve(v) then gives v^T (-S_{l+1})^{-1}
    // (the forward-pass direction, cache-friendly) and solve_transposed(c)
    // gives (-S_{l+1})^{-1} c (the X columns below). Fold-densified columns
    // of S become dense rows of G; order them last so the leading sparse
    // part eliminates without fill spreading.
    LevelFactor lf;
    lf.order.reserve(b_up);
    for (std::size_t i = 0; i < b_up; ++i) {
      if (!fold_marks[i]) lf.order.push_back(i);
    }
    for (std::size_t i = 0; i < b_up; ++i) {
      if (fold_marks[i]) lf.order.push_back(i);
    }
    Matrix g(b_up, b_up);
    for (std::size_t r = 0; r < b_up; ++r) {
      for (std::size_t c = 0; c < b_up; ++c) {
        g(r, c) = -s_block(lf.order[c], lf.order[r]);
      }
    }
    lf.factor.emplace(std::move(g));
    up_factor[l] = std::move(lf);
    const LevelFactor& factor = *up_factor[l];

    // C_{l+1} packed by target column (level-l local index).
    std::vector<std::vector<std::pair<std::size_t, double>>> c_cols(b);
    for (std::size_t r2 = 0; r2 < b_up; ++r2) {
      const std::size_t u2 = above[r2];
      const std::size_t* to = rates.row_cols(u2);
      const double* rate = rates.row_values(u2);
      const std::size_t nnz = rates.row_nnz(u2);
      for (std::size_t k = 0; k < nnz; ++k) {
        if (part.level[to[k]] == l) {
          c_cols[part.local[to[k]]].emplace_back(r2, rate[k]);
        }
      }
    }

    // S_l = A_l + B_l X, one active column at a time.
    Matrix next = level_block(l);
    for (std::size_t c = 0; c < b; ++c) {
      if (c_cols[c].empty()) continue;
      rhs.assign(b_up, 0.0);
      for (const auto& [r2, w] : c_cols[c]) rhs[r2] += w;
      const Vector x = factor.solve_transposed(rhs);
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t u = states[i];
        const std::size_t* to = rates.row_cols(u);
        const double* rate = rates.row_values(u);
        const std::size_t nnz = rates.row_nnz(u);
        double acc = 0.0;
        for (std::size_t k = 0; k < nnz; ++k) {
          if (part.level[to[k]] == l + 1) acc += rate[k] * x[part.local[to[k]]];
        }
        next(i, c) += acc;
      }
    }
    s_block = std::move(next);
    fold_marks.assign(b, false);
    for (std::size_t c = 0; c < b; ++c) {
      if (!c_cols[c].empty()) fold_marks[c] = true;
    }
  }

  // The censored generator S_0 is a proper (conservative up to roundoff)
  // generator of the level-0 process; GTH ignores its diagonal, so row-sum
  // drift is harmless — only clamp roundoff-negative off-diagonals.
  const std::size_t b0 = part.states[0].size();
  for (std::size_t r = 0; r < b0; ++r) {
    for (std::size_t c = 0; c < b0; ++c) {
      if (r != c && s_block(r, c) < 0.0) s_block(r, c) = 0.0;
    }
  }
  Vector level_pi = gth_stationary(std::move(s_block));

  Vector pi(n, 0.0);
  for (std::size_t r = 0; r < b0; ++r) pi[part.states[0][r]] = level_pi[r];
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    // pi_{l+1} = pi_l R_l = (pi_l B_l) (-S_{l+1})^{-1}. Exact arithmetic
    // keeps this non-negative (R is an expected-visits matrix); clamp the
    // roundoff dust so downstream mass sums keep the old >= 0 guarantee.
    const std::vector<std::size_t>& states = part.states[l];
    const std::vector<std::size_t>& above = part.states[l + 1];
    rhs.assign(above.size(), 0.0);
    for (std::size_t i = 0; i < states.size(); ++i) {
      const std::size_t u = states[i];
      const std::size_t* to = rates.row_cols(u);
      const double* rate = rates.row_values(u);
      const std::size_t nnz = rates.row_nnz(u);
      for (std::size_t k = 0; k < nnz; ++k) {
        if (part.level[to[k]] == l + 1) {
          rhs[part.local[to[k]]] += level_pi[i] * rate[k];
        }
      }
    }
    level_pi = up_factor[l]->solve(rhs);
    for (double& v : level_pi) {
      if (v < 0.0) v = 0.0;
    }
    for (std::size_t c = 0; c < above.size(); ++c) {
      pi[above[c]] = level_pi[c];
    }
  }
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "block_tridiagonal_stationary"));

  if (info != nullptr) {
    info->iterations = 0;
    info->converged = true;
    info->residual = stationary_residual(rates, exit_rates, pi);
  }
  return pi;
}

}  // namespace esched
