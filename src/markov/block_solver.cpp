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

/// Per-state index within its level plus the per-level state lists.
/// Within a level, states keep ascending global order, so the construction
/// is deterministic.
struct LevelPartition {
  std::vector<std::uint32_t> local;  // index within the level
  std::vector<std::vector<std::size_t>> states;  // per level, ascending
};

LevelPartition partition_levels(const std::vector<std::uint32_t>& level_of,
                                std::size_t n) {
  ESCHED_CHECK(level_of.size() == n, "level_of dimension mismatch");
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  LevelPartition p;
  p.local.resize(n);
  p.states.resize(num_levels);
  for (std::size_t s = 0; s < n; ++s) {
    p.local[s] = static_cast<std::uint32_t>(p.states[level_of[s]].size());
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

/// G = (-S)^T of one censored level block, laid out for the sparse fold.
/// The fold-densified columns of S are ordered last, so G's rows [0, split)
/// come from A's sparse columns and its rows [split, n) are the m = n -
/// split dense ones:
///   - lead[r], r < split: row r's entries in columns [0, split), ascending;
///   - panel: the dense rows' columns [0, split), row-major, m x split;
///   - tail: every row's columns [split, n), row-major, n x m.
/// An entry that is absent or exactly 0 is the same zero to the factor.
/// The sweep refills one instance per level, so the per-row vectors keep
/// their capacity from level to level.
struct FoldMatrix {
  struct Entry {
    std::uint32_t col;
    double value;
  };

  std::size_t n = 0;
  std::size_t split = 0;
  std::vector<std::vector<Entry>> lead;
  Vector panel;
  Vector tail;
  /// Elimination scratch: col_rows[c] lists the sparse rows with a stored
  /// entry in leading column c.
  std::vector<std::vector<std::uint32_t>> col_rows;

  std::size_t dense_rows() const { return n - split; }

  /// Empties the matrix and shapes it for n rows, the last n - split dense.
  void reset(std::size_t rows, std::size_t sparse_rows) {
    n = rows;
    split = sparse_rows;
    if (lead.size() < split) lead.resize(split);
    if (col_rows.size() < split) col_rows.resize(split);
    for (std::size_t r = 0; r < split; ++r) {
      lead[r].clear();
      col_rows[r].clear();
    }
    panel.assign(dense_rows() * split, 0.0);
    tail.assign(n * dense_rows(), 0.0);
  }
};

/// File-local LU for the censored level generators G = (-S)^T: partial
/// pivoting (the first strictly larger |entry| in the column wins, whole
/// rows swap), factor = g(r, col) * inv_diag, and updates over the pivot
/// row's nonzeros only — the same floating-point operations, in the same
/// order, as a dense right-looking elimination that skips zeros, so the
/// factors are bitwise those of the dense b x b elimination. It works on a
/// FoldMatrix instead: the sparse rows' columns are found through a
/// per-column row list, fill is merged into the rows, and the dense rows
/// and trailing m x m block are updated in place. The level generators are
/// banded except in the few fold-densified columns, and (-S)^T is
/// column-wise diagonally dominant, so pivoting essentially never swaps
/// and the work is about b * m^2 per level (see block_solver_flop_estimate)
/// rather than the b^2 of touching every entry. The factors are compressed
/// into CSR-style column/row arrays for the many solves that follow.
class FoldFactor {
 public:
  /// Factors `g` in place (it is scratch afterwards).
  explicit FoldFactor(FoldMatrix& g) {
    const std::size_t n = g.n;
    const std::size_t split = g.split;
    const std::size_t m = g.dense_rows();
    // Rows are stored by slot (their original position) and swapped through
    // slot_at/pos_of; slot_at ends up as the row permutation. The trailing
    // block reads only slot_at.
    std::vector<std::size_t>& slot_at = perm_;
    slot_at.resize(n);
    std::vector<std::size_t> pos_of(n);
    for (std::size_t i = 0; i < n; ++i) slot_at[i] = pos_of[i] = i;
    std::vector<std::vector<std::uint32_t>>& col_rows = g.col_rows;
    for (std::size_t s = 0; s < split; ++s) {
      for (const FoldMatrix::Entry& e : g.lead[s]) {
        col_rows[e.col].push_back(static_cast<std::uint32_t>(s));
      }
    }
    const auto lead_index = [&](std::size_t s, std::size_t col) {
      const std::vector<FoldMatrix::Entry>& row = g.lead[s];
      return static_cast<std::size_t>(
          std::lower_bound(row.begin(), row.end(), col,
                           [](const FoldMatrix::Entry& e, std::size_t c) {
                             return e.col < c;
                           }) -
          row.begin());
    };
    // One row with a stored entry in the pivot column: its slot and where
    // that entry lives (an index into lead[slot], or into panel).
    struct Candidate {
      std::size_t slot;
      std::size_t at;
      double value;
    };
    std::vector<Candidate> candidates;
    std::vector<FoldMatrix::Entry> urow_lead;
    std::vector<FoldMatrix::Entry> urow_tail;  // col = tail index
    std::vector<FoldMatrix::Entry> merged;

    // Leading columns: the sparse rows and the dense panel.
    for (std::size_t col = 0; col < split; ++col) {
      candidates.clear();
      for (const std::uint32_t s : col_rows[col]) {
        if (pos_of[s] < col) continue;
        const std::size_t at = lead_index(s, col);
        candidates.push_back({s, at, g.lead[s][at].value});
      }
      for (std::size_t s = split; s < n; ++s) {
        if (pos_of[s] < col) continue;
        const std::size_t at = (s - split) * split + col;
        candidates.push_back({s, at, g.panel[at]});
      }
      const Candidate* pivot = nullptr;
      double best = 0.0;
      for (const Candidate& c : candidates) {
        if (pos_of[c.slot] == col) {
          pivot = &c;
          best = std::abs(c.value);
        }
      }
      for (const Candidate& c : candidates) {
        const double cand = std::abs(c.value);
        if (cand > best ||
            (cand == best && pivot != nullptr &&
             pos_of[c.slot] < pos_of[pivot->slot])) {
          best = cand;
          pivot = &c;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      const std::size_t ps = pivot->slot;
      if (pos_of[ps] != col) {
        const std::size_t displaced = slot_at[col];
        slot_at[pos_of[ps]] = displaced;
        pos_of[displaced] = pos_of[ps];
        slot_at[col] = ps;
        pos_of[ps] = col;
      }
      const double inv_diag = 1.0 / pivot->value;
      urow_lead.clear();
      if (ps < split) {
        const std::vector<FoldMatrix::Entry>& row = g.lead[ps];
        for (std::size_t e = pivot->at + 1; e < row.size(); ++e) {
          if (row[e].value != 0.0) urow_lead.push_back(row[e]);
        }
      } else {
        const double* row = g.panel.data() + (ps - split) * split;
        for (std::size_t c = col + 1; c < split; ++c) {
          if (row[c] != 0.0) {
            urow_lead.push_back({static_cast<std::uint32_t>(c), row[c]});
          }
        }
      }
      urow_tail.clear();
      for (std::size_t t = 0; t < m; ++t) {
        const double u = g.tail[ps * m + t];
        if (u != 0.0) urow_tail.push_back({static_cast<std::uint32_t>(t), u});
      }
      for (const Candidate& c : candidates) {
        if (c.slot == ps) continue;
        const double factor = c.value * inv_diag;
        double* tail = g.tail.data() + c.slot * m;
        if (c.slot >= split) {
          double* row = g.panel.data() + (c.slot - split) * split;
          row[col] = factor;
          if (factor == 0.0) continue;
          for (const FoldMatrix::Entry& u : urow_lead) {
            row[u.col] -= factor * u.value;
          }
        } else {
          std::vector<FoldMatrix::Entry>& row = g.lead[c.slot];
          row[c.at].value = factor;
          if (factor == 0.0) continue;
          // Subtract factor * (pivot row) right of col, in place up to the
          // first column this row lacks; from there merge, a lacking
          // column being fill 0 - factor * u.
          std::size_t a = c.at + 1;
          std::size_t q = 0;
          for (; q < urow_lead.size(); ++q) {
            const FoldMatrix::Entry& u = urow_lead[q];
            while (a < row.size() && row[a].col < u.col) ++a;
            if (a == row.size() || row[a].col != u.col) break;
            row[a++].value -= factor * u.value;
          }
          if (q < urow_lead.size()) {
            const std::size_t keep = a;
            merged.clear();
            for (; q < urow_lead.size(); ++q) {
              const FoldMatrix::Entry& u = urow_lead[q];
              while (a < row.size() && row[a].col < u.col) {
                merged.push_back(row[a++]);
              }
              if (a < row.size() && row[a].col == u.col) {
                merged.push_back({u.col, row[a++].value - factor * u.value});
              } else {
                merged.push_back({u.col, 0.0 - factor * u.value});
                col_rows[u.col].push_back(static_cast<std::uint32_t>(c.slot));
              }
            }
            merged.insert(merged.end(),
                          row.begin() + static_cast<std::ptrdiff_t>(a),
                          row.end());
            row.resize(keep);
            row.insert(row.end(), merged.begin(), merged.end());
          }
        }
        for (const FoldMatrix::Entry& u : urow_tail) {
          tail[u.col] -= factor * u.value;
        }
      }
    }

    // Trailing m x m block: dense, every remaining row in the tail.
    for (std::size_t col = split; col < n; ++col) {
      const std::size_t t = col - split;
      std::size_t pivot = col;
      double best = std::abs(g.tail[slot_at[col] * m + t]);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(g.tail[slot_at[r] * m + t]);
        if (cand > best) {
          best = cand;
          pivot = r;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      if (pivot != col) std::swap(slot_at[pivot], slot_at[col]);
      const double* urow = g.tail.data() + slot_at[col] * m;
      const double inv_diag = 1.0 / urow[t];
      urow_tail.clear();
      for (std::size_t c = t + 1; c < m; ++c) {
        if (urow[c] != 0.0) {
          urow_tail.push_back({static_cast<std::uint32_t>(c), urow[c]});
        }
      }
      for (std::size_t r = col + 1; r < n; ++r) {
        double* row = g.tail.data() + slot_at[r] * m;
        const double factor = row[t] * inv_diag;
        row[t] = factor;
        if (factor == 0.0) continue;
        for (const FoldMatrix::Entry& u : urow_tail) {
          row[u.col] -= factor * u.value;
        }
      }
    }

    // Compress: U by row, L by column, both ascending, zeros dropped. The
    // first pass counts the lines, the second fills them.
    const auto for_each_entry = [&](std::size_t r, const auto& visit) {
      const std::size_t s = slot_at[r];
      if (s < split) {
        for (const FoldMatrix::Entry& e : g.lead[s]) visit(e.col, e.value);
      } else {
        const double* row = g.panel.data() + (s - split) * split;
        for (std::size_t c = 0; c < split; ++c) visit(c, row[c]);
      }
      const double* tail = g.tail.data() + s * m;
      for (std::size_t t = 0; t < m; ++t) visit(split + t, tail[t]);
    };
    diag_.resize(n);
    u_rows_.ptr.assign(n + 1, 0);
    l_cols_.ptr.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      for_each_entry(r, [&](std::size_t c, double v) {
        if (c == r) {
          diag_[r] = v;
        } else if (v != 0.0) {
          ++(c > r ? u_rows_.ptr[r + 1] : l_cols_.ptr[c + 1]);
        }
      });
    }
    u_rows_.size_lines();
    l_cols_.size_lines();
    std::size_t u_at = 0;
    std::vector<std::size_t> l_at(l_cols_.ptr.begin(), l_cols_.ptr.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      for_each_entry(r, [&](std::size_t c, double v) {
        if (c == r || v == 0.0) return;
        if (c > r) {
          u_rows_.set(u_at++, c, v);
        } else {
          l_cols_.set(l_at[c]++, r, v);
        }
      });
    }
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

    /// ptr holds each line's entry count at [k + 1]; turns the counts
    /// into offsets and sizes the entry arrays.
    void size_lines() {
      for (std::size_t k = 1; k < ptr.size(); ++k) ptr[k] += ptr[k - 1];
      index.resize(ptr.back());
      value.resize(ptr.back());
    }
    void set(std::size_t e, std::size_t i, double v) {
      index[e] = static_cast<std::uint32_t>(i);
      value[e] = v;
    }
  };

  std::vector<std::size_t> perm_;
  Vector diag_;
  /// Strict lower factor by column / strict upper factor by row.
  Compressed l_cols_;
  Compressed u_rows_;
};

/// A level's factored censored generator: FoldFactor over (-S_{l+1})^T
/// symmetrically permuted so the fold-densified indices come last (the
/// sparse rows eliminate first, dense fill stays in the dense rows and the
/// trailing m x m block).
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
  // which the direct elimination cannot represent; the exact backend then
  // solves the chain's closed class instead.
  std::vector<bool> has_down(num_levels, false);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) {
      const long diff = static_cast<long>(level_of[s]) -
                        static_cast<long>(level_of[to[k]]);
      ESCHED_CHECK(diff >= -1 && diff <= 1,
                   "transition " + std::to_string(s) + " -> " +
                       std::to_string(to[k]) + " jumps from level " +
                       std::to_string(level_of[s]) + " to level " +
                       std::to_string(level_of[to[k]]) +
                       ": the chain is not level-structured");
      if (diff == 1) has_down[level_of[s]] = true;
    }
  }
  for (std::size_t l = 1; l < num_levels; ++l) {
    ESCHED_CHECK(has_down[l],
                 "level " + std::to_string(l) +
                     " has no transitions to level " + std::to_string(l - 1) +
                     ": the chain is reducible across levels (everything "
                     "below is transient); use an iterative solver");
  }

  // Level l's generator rows in level-local indices, read from the CSR in
  // one pass (its rows can lie far apart in the CSR): the within-level
  // block A_l and the transitions up (B_l) and down (C_l), each row in CSR
  // order. A_l carries the implied diagonal -exit: exit rates include
  // transitions to *other* levels, so the diagonal of S_l carries the
  // escape mass GTH later treats as censored. Each A_l value is what a
  // zeroed dense block accumulates: the diagonal -exit plus any self-rate,
  // an off-diagonal 0.0 + rate.
  struct LocalRows {
    std::vector<std::size_t> ptr;
    std::vector<std::uint32_t> col;
    Vector value;

    void clear() {
      ptr.assign(1, 0);
      col.clear();
      value.clear();
    }
    void push(std::size_t c, double v) {
      col.push_back(static_cast<std::uint32_t>(c));
      value.push_back(v);
    }
    void next_row() { ptr.push_back(col.size()); }
  };
  struct LevelRows {
    LocalRows within;
    LocalRows up;
    LocalRows down;
  };
  const auto level_rows = [&](std::size_t l, LevelRows* rows) {
    const std::vector<std::size_t>& states = part.states[l];
    rows->within.clear();
    rows->up.clear();
    rows->down.clear();
    for (std::size_t r = 0; r < states.size(); ++r) {
      const std::size_t u = states[r];
      double diag = -exit_rates[u];
      const std::size_t* to = rates.row_cols(u);
      const double* rate = rates.row_values(u);
      const std::size_t nnz = rates.row_nnz(u);
      for (std::size_t k = 0; k < nnz; ++k) {
        const std::uint32_t target = level_of[to[k]];
        const std::size_t c = part.local[to[k]];
        if (target > l) {
          rows->up.push(c, rate[k]);
        } else if (target < l) {
          rows->down.push(c, rate[k]);
        } else if (c == r) {
          diag += rate[k];
        } else {
          rows->within.push(c, 0.0 + rate[k]);
        }
      }
      rows->within.push(r, diag);
      rows->within.next_row();
      rows->up.next_row();
      rows->down.next_row();
    }
  };

  // Backward sweep: S starts as A_{L-1}; each step folds level l+1 into
  // level l. The expected-visits factor R_l = B_l (-S_{l+1})^{-1} is never
  // formed densely: the fold S_l = A_l + R_l C_{l+1} needs only
  // X = (-S_{l+1})^{-1} C_{l+1} — one triangular solve per nonzero COLUMN
  // of C, and down-transitions land on few level-l states — and the
  // forward pass needs only pi_l R_l, one solve against the kept factor
  // per level. That replaces b solves per level (every row of R) with
  // ~|cols(C)| + 1, which is what keeps the fold cheap on chains whose
  // levels have few down-targets.
  //
  // S_l itself is never dense either (except S_0, for GTH): it is A_l in
  // every column but the m_l fold-densified ones, the level-l states that
  // receive down-transitions, which are kept as dense columns.
  std::vector<std::optional<LevelFactor>> up_factor(
      num_levels > 0 ? num_levels - 1 : 0);
  LevelRows rows_above;
  LevelRows rows_here;
  level_rows(num_levels - 1, &rows_above);
  // S_{l+1}'s fold-densified columns (ascending level-local indices) and
  // their values: column t is fold_cols[t * b_up .. (t + 1) * b_up).
  std::vector<std::size_t> marked_above;
  std::vector<std::size_t> marked_here;
  Vector fold_above;
  Vector fold_here;
  FoldMatrix g;
  std::vector<std::uint32_t> pos;
  std::vector<std::vector<std::pair<std::size_t, double>>> c_cols;
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
    // part eliminates without fill spreading. G(pos(j), pos(i)) =
    // -S(i, j): the sparse rows come from A_{l+1}'s entries, read in
    // ascending pos(i), and the dense rows from the kept fold columns.
    const std::size_t m = marked_above.size();
    const std::size_t split = b_up - m;
    LevelFactor lf;
    lf.order.reserve(b_up);
    pos.assign(b_up, 0);  // marks the fold-densified columns, then pos(j)
    for (const std::size_t j : marked_above) pos[j] = 1;
    for (std::size_t i = 0; i < b_up; ++i) {
      if (pos[i] == 0) lf.order.push_back(i);
    }
    lf.order.insert(lf.order.end(), marked_above.begin(), marked_above.end());
    for (std::size_t p = 0; p < b_up; ++p) {
      pos[lf.order[p]] = static_cast<std::uint32_t>(p);
    }
    g.reset(b_up, split);
    const LocalRows& a = rows_above.within;
    for (std::size_t p = 0; p < b_up; ++p) {
      const std::size_t i = lf.order[p];
      for (std::size_t e = a.ptr[i]; e < a.ptr[i + 1]; ++e) {
        const std::size_t r = pos[a.col[e]];
        if (r >= split) continue;  // a fold-densified column: below
        if (p < split) {
          g.lead[r].push_back({static_cast<std::uint32_t>(p), -a.value[e]});
        } else {
          g.tail[r * m + (p - split)] = -a.value[e];
        }
      }
    }
    for (std::size_t t = 0; t < m; ++t) {
      const double* column = fold_above.data() + t * b_up;
      for (std::size_t p = 0; p < split; ++p) {
        g.panel[t * split + p] = -column[lf.order[p]];
      }
      for (std::size_t p = split; p < b_up; ++p) {
        g.tail[(split + t) * m + (p - split)] = -column[lf.order[p]];
      }
    }
    lf.factor.emplace(g);
    up_factor[l] = std::move(lf);
    const LevelFactor& factor = *up_factor[l];

    // C_{l+1} packed by target column (level-l local index).
    c_cols.assign(b, {});
    const LocalRows& c_rows = rows_above.down;
    for (std::size_t r2 = 0; r2 < b_up; ++r2) {
      for (std::size_t e = c_rows.ptr[r2]; e < c_rows.ptr[r2 + 1]; ++e) {
        c_cols[c_rows.col[e]].emplace_back(r2, c_rows.value[e]);
      }
    }

    // S_l = A_l + B_l X in the columns C reaches, one column at a time:
    // A_l's entries there, then + (B_l x)_i in every row.
    level_rows(l, &rows_here);
    marked_here.clear();
    for (std::size_t c = 0; c < b; ++c) {
      if (!c_cols[c].empty()) marked_here.push_back(c);
    }
    fold_here.assign(marked_here.size() * b, 0.0);
    pos.assign(b, 0);  // 1 + the fold column of a marked state, else 0
    for (std::size_t t = 0; t < marked_here.size(); ++t) {
      pos[marked_here[t]] = static_cast<std::uint32_t>(t + 1);
    }
    const LocalRows& a_l = rows_here.within;
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t e = a_l.ptr[i]; e < a_l.ptr[i + 1]; ++e) {
        const std::uint32_t t = pos[a_l.col[e]];
        if (t != 0) fold_here[(t - 1) * b + i] = a_l.value[e];
      }
    }
    const LocalRows& b_l = rows_here.up;
    for (std::size_t t = 0; t < marked_here.size(); ++t) {
      rhs.assign(b_up, 0.0);
      for (const auto& [r2, w] : c_cols[marked_here[t]]) rhs[r2] += w;
      const Vector x = factor.solve_transposed(rhs);
      double* column = fold_here.data() + t * b;
      for (std::size_t i = 0; i < b; ++i) {
        double acc = 0.0;
        for (std::size_t e = b_l.ptr[i]; e < b_l.ptr[i + 1]; ++e) {
          acc += b_l.value[e] * x[b_l.col[e]];
        }
        column[i] += acc;
      }
    }
    std::swap(rows_above, rows_here);
    std::swap(marked_above, marked_here);
    std::swap(fold_above, fold_here);
  }

  // S_0, dense for GTH: A_0 with the fold columns written over it.
  const std::size_t b0 = part.states[0].size();
  Matrix s_block(b0, b0);
  const LocalRows& a_0 = rows_above.within;
  for (std::size_t i = 0; i < b0; ++i) {
    for (std::size_t e = a_0.ptr[i]; e < a_0.ptr[i + 1]; ++e) {
      s_block(i, a_0.col[e]) = a_0.value[e];
    }
  }
  for (std::size_t t = 0; t < marked_above.size(); ++t) {
    for (std::size_t i = 0; i < b0; ++i) {
      s_block(i, marked_above[t]) = fold_above[t * b0 + i];
    }
  }

  // The censored generator S_0 is a proper (conservative up to roundoff)
  // generator of the level-0 process; GTH ignores its diagonal, so row-sum
  // drift is harmless — only clamp roundoff-negative off-diagonals.
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
        if (level_of[to[k]] == l + 1) {
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
    info->residual = stationary_residual(rates, exit_rates, pi);
  }
  return pi;
}

}  // namespace esched
