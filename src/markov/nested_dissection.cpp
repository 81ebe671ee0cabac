#include "markov/nested_dissection.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/invariants.hpp"

namespace esched {

namespace {

/// Regions of at most this many states are leaves, eliminated whole in
/// row-major order; larger regions are split.
constexpr long kLeafArea = 8;

/// Nodes above this depth of the dissection tree keep their factor columns
/// for back-substitution; the subtrees rooted at this depth are refactored
/// when back-substitution reaches them.
constexpr int kKeepDepth = 4;

/// Back-substitution pins the root's last pivot to 1; when the chain puts
/// little mass there the unnormalized values grow, so they are scaled down
/// by an exact power of two before they can overflow.
constexpr double kRescaleAbove = 0x1p900;
constexpr double kRescaleBy = 0x1p-900;

/// Half-open grid region [i0, i1) x [j0, j1).
struct Rect {
  long i0, i1, j0, j1;
  long rows() const { return i1 - i0; }
  long cols() const { return j1 - j0; }
  std::size_t area() const { return static_cast<std::size_t>(rows() * cols()); }
  bool empty() const { return rows() <= 0 || cols() <= 0; }
  bool leaf() const { return rows() * cols() <= kLeafArea; }
};

/// A region cut by its middle line across the longer side (rows on a tie):
/// the separator line and the halves on either side, which may be empty.
struct Split {
  Rect sep, first, second;
};

Split split(const Rect& r) {
  if (r.rows() >= r.cols()) {
    const long m = r.i0 + r.rows() / 2;
    return {{m, m + 1, r.j0, r.j1}, {r.i0, m, r.j0, r.j1},
            {m + 1, r.i1, r.j0, r.j1}};
  }
  const long m = r.j0 + r.cols() / 2;
  return {{r.i0, r.i1, m, m + 1}, {r.i0, r.i1, r.j0, m},
          {r.i0, r.i1, m + 1, r.j1}};
}

/// Doubles of the packed factor columns of a front with p pivots and f
/// states: pivot k keeps the f-1-k entries below its diagonal.
std::size_t packed_size(std::size_t p, std::size_t f) {
  return p * (f - 1) - p * (p - 1) / 2;
}

/// y[0, n) += a * x[0, n). Unrolled by four so the compiler can pair the
/// lanes into vector instructions; each lane adds one product in order.
void add_scaled(double* __restrict y, const double* __restrict x, double a,
                std::size_t n) {
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    y[c] += a * x[c];
    y[c + 1] += a * x[c + 1];
    y[c + 2] += a * x[c + 2];
    y[c + 3] += a * x[c + 3];
  }
  for (; c < n; ++c) y[c] += a * x[c];
}

/// Walks the dissection through the factor pass and the back-substitution.
/// Walk<false> only counts (multiply-adds, stack sizes) and allocates
/// nothing; Walk<true> also runs the elimination. Both make the same calls
/// in the same order, so the counts describe the numeric walk exactly.
template <bool kNumeric>
class Walk {
 public:
  Walk(long ni, long nj) : ni_(ni), nj_(nj) {}

  /// Numeric walk over `rates`, with its buffers reserved from `plan` (the
  /// symbolic walk of the same grid) so none of them reallocates.
  Walk(long ni, long nj, const CsrMatrix& rates, const Walk<false>& plan)
      : ni_(ni), nj_(nj), rates_(&rates) {
    const auto n = static_cast<std::size_t>(ni * nj);
    pos_.assign(n, -1);
    pi_.assign(n, 0.0);
    front_.resize(plan.front_peak);
    updates_.reserve(plan.update_peak);
    factors_.reserve(plan.factor_peak);
    ids_.reserve(plan.front_dim_peak);
    ring_.reserve(plan.front_dim_peak);
    map_.reserve(plan.front_dim_peak);
  }

  void run() {
    const Rect whole{0, ni_, 0, nj_};
    factor(whole, 0, false, false);
    backsolve(whole, 0, false);
  }

  Vector& pi() { return pi_; }

  double flops = 0.0;
  /// Peak doubles of the update stack, the factor stack and one front, and
  /// the largest front dimension.
  std::size_t update_peak = 0;
  std::size_t factor_peak = 0;
  std::size_t front_peak = 0;
  std::size_t front_dim_peak = 0;

 private:
  std::size_t ring_size(const Rect& r) const {
    if (r.empty()) return 0;
    long b = 0;
    if (r.i0 > 0) b += r.cols();
    if (r.i1 < ni_) b += r.cols();
    if (r.j0 > 0) b += r.rows();
    if (r.j1 < nj_) b += r.rows();
    return static_cast<std::size_t>(b);
  }

  void append_cells(const Rect& r, std::vector<std::uint32_t>& out) const {
    for (long i = r.i0; i < r.i1; ++i) {
      for (long j = r.j0; j < r.j1; ++j) out.push_back(cell(i, j));
    }
  }

  /// The states just outside `r` (4-neighbours of its cells), ascending.
  void append_ring(const Rect& r, std::vector<std::uint32_t>& out) const {
    if (r.i0 > 0) {
      for (long j = r.j0; j < r.j1; ++j) out.push_back(cell(r.i0 - 1, j));
    }
    for (long i = r.i0; i < r.i1; ++i) {
      if (r.j0 > 0) out.push_back(cell(i, r.j0 - 1));
      if (r.j1 < nj_) out.push_back(cell(i, r.j1));
    }
    if (r.i1 < ni_) {
      for (long j = r.j0; j < r.j1; ++j) out.push_back(cell(r.i1, j));
    }
  }

  std::uint32_t cell(long i, long j) const {
    return static_cast<std::uint32_t>(i * nj_ + j);
  }

  /// Eliminates the pivots of region `r` after its subtrees. The node's
  /// factor columns are kept when `keep_all` or the node is near the root;
  /// its boundary update is pushed for the parent when `need_update`.
  void factor(const Rect& r, int depth, bool keep_all, bool need_update) {
    const bool leaf = r.leaf();
    Split sp{};
    std::size_t b1 = 0;
    std::size_t b2 = 0;
    if (!leaf) {
      sp = split(r);
      if (!sp.first.empty()) factor(sp.first, depth + 1, keep_all, true);
      if (!sp.second.empty()) factor(sp.second, depth + 1, keep_all, true);
      b1 = ring_size(sp.first);
      b2 = ring_size(sp.second);
    }
    const Rect& pivots = leaf ? r : sp.sep;
    const std::size_t p = pivots.area();
    const std::size_t b = ring_size(r);
    const std::size_t f = p + b;
    const bool keep = keep_all || depth < kKeepDepth;
    // The children's updates sit on top of the stack, the first below.
    const std::size_t child_base = update_size_ - b1 * b1 - b2 * b2;
    front_peak = std::max(front_peak, f * f);
    front_dim_peak = std::max(front_dim_peak, f);
    count_elimination(p, b, need_update);

    if constexpr (kNumeric) {
      ids_.clear();
      append_cells(pivots, ids_);
      append_ring(r, ids_);
      for (std::size_t x = 0; x < f; ++x) {
        pos_[ids_[x]] = static_cast<std::int32_t>(x);
      }
      double* front = front_.data();
      std::fill(front, front + f * f, 0.0);
      assemble(front, p, f);
      if (b1 > 0) {
        extend_add(sp.first, updates_.data() + child_base, b1, front, f);
      }
      if (b2 > 0) {
        extend_add(sp.second, updates_.data() + child_base + b1 * b1, b2,
                   front, f);
      }
      updates_.resize(child_base);
      eliminate(front, p, f, need_update);
      if (keep) {
        for (std::size_t k = 0; k < p; ++k) {
          for (std::size_t r2 = k + 1; r2 < f; ++r2) {
            factors_.push_back(front[r2 * f + k]);
          }
        }
      }
      if (need_update) {
        for (std::size_t r2 = p; r2 < f; ++r2) {
          updates_.insert(updates_.end(), front + r2 * f + p,
                          front + (r2 + 1) * f);
        }
      }
      for (std::size_t x = 0; x < f; ++x) pos_[ids_[x]] = -1;
    }

    update_size_ = child_base;
    if (keep) {
      factor_size_ += packed_size(p, f);
      factor_peak = std::max(factor_peak, factor_size_);
    }
    if (need_update) {
      update_size_ += b * b;
      update_peak = std::max(update_peak, update_size_);
    }
  }

  /// Multiply-adds of eliminate(): per pivot k, the rank-one update of the
  /// later pivots' rows and of the boundary rows' pivot columns, plus the
  /// row sum and column scaling; then the boundary fold.
  void count_elimination(std::size_t p, std::size_t b, bool need_update) {
    const std::size_t f = p + b;
    for (std::size_t k = 0; k < p && k + 1 < f; ++k) {
      const double later = static_cast<double>(p - 1 - k);
      const double rest = static_cast<double>(f - 1 - k);
      flops += later * rest + static_cast<double>(b) * later + 2.0 * rest;
    }
    if (need_update) {
      flops += static_cast<double>(b) * static_cast<double>(b) *
               static_cast<double>(p);
    }
  }

  /// Adds the rates the front's pivots own: their out-edges to any front
  /// state, and the in-edges from boundary states, read from those states'
  /// rows (a boundary state is always a grid neighbour of the pivot).
  void assemble(double* front, std::size_t p, std::size_t f) const {
    const CsrMatrix& rates = *rates_;
    for (std::size_t x = 0; x < p; ++x) {
      const std::uint32_t s = ids_[x];
      const std::size_t* to = rates.row_cols(s);
      const double* rate = rates.row_values(s);
      const std::size_t nnz = rates.row_nnz(s);
      double* row = front + x * f;
      for (std::size_t e = 0; e < nnz; ++e) {
        const std::int32_t y = pos_[to[e]];
        if (y >= 0) row[y] += rate[e];
      }
      const long i = static_cast<long>(s) / nj_;
      const long j = static_cast<long>(s) % nj_;
      const long neighbours[4][2] = {{i - 1, j}, {i, j - 1}, {i, j + 1},
                                     {i + 1, j}};
      for (const auto& nb : neighbours) {
        if (nb[0] < 0 || nb[0] >= ni_ || nb[1] < 0 || nb[1] >= nj_) continue;
        const std::uint32_t t = cell(nb[0], nb[1]);
        const std::int32_t y = pos_[t];
        if (y < static_cast<std::int32_t>(p)) continue;  // not on the ring
        const std::size_t* from_to = rates.row_cols(t);
        const double* from_rate = rates.row_values(t);
        const std::size_t from_nnz = rates.row_nnz(t);
        for (std::size_t e = 0; e < from_nnz; ++e) {
          if (from_to[e] == s) {
            front[static_cast<std::size_t>(y) * f + x] += from_rate[e];
          }
        }
      }
    }
  }

  /// Adds a child's boundary update (over the child's ring, which lies on
  /// this front's pivots and ring) into the front.
  void extend_add(const Rect& child, const double* update, std::size_t bc,
                  double* front, std::size_t f) {
    ring_.clear();
    append_ring(child, ring_);
    map_.clear();
    for (const std::uint32_t t : ring_) {
      ESCHED_ASSERT(pos_[t] >= 0, "child boundary state outside the front");
      map_.push_back(static_cast<std::size_t>(pos_[t]));
    }
    for (std::size_t x = 0; x < bc; ++x) {
      double* row = front + map_[x] * f;
      const double* u = update + x * bc;
      for (std::size_t y = 0; y < bc; ++y) row[map_[y]] += u[y];
    }
  }

  /// Right-looking GTH over the first p states of the f x f front. Pivot k
  /// divides its column by s_k (its rates to the later front states; the
  /// diagonal is never read) and adds l(r,k) a(k,c) to each later entry,
  /// except the boundary-by-boundary block, which the fold below updates
  /// with all pivots at once. The root keeps its last pivot (f == p).
  void eliminate(double* front, std::size_t p, std::size_t f,
                 bool need_update) const {
    for (std::size_t k = 0; k < p && k + 1 < f; ++k) {
      const double* pivot_row = front + k * f;
      double s = 0.0;
      for (std::size_t c = k + 1; c < f; ++c) s += pivot_row[c];
      if (!(s > 0.0)) {
        const long i = static_cast<long>(ids_[k]) / nj_;
        const long j = static_cast<long>(ids_[k]) % nj_;
        throw Error("nested dissection: zero GTH pivot at state (" +
                    std::to_string(i) + ", " + std::to_string(j) +
                    "): it has no path to the states eliminated after it, "
                    "so the chain is reducible; use an iterative solver");
      }
      for (std::size_t r = k + 1; r < f; ++r) front[r * f + k] /= s;
      for (std::size_t r = k + 1; r < f; ++r) {
        const double l = front[r * f + k];
        if (l == 0.0) continue;
        const std::size_t end = r < p ? f : p;
        double* row = front + r * f;
        add_scaled(row + k + 1, pivot_row + k + 1, l, end - k - 1);
      }
    }
    if (!need_update) return;
    for (std::size_t r = p; r < f; ++r) {
      double* row = front + r * f;
      for (std::size_t k = 0; k < p; ++k) {
        const double l = row[k];
        if (l == 0.0) continue;
        add_scaled(row + p, front + k * f + p, l, f - p);
      }
    }
  }

  /// Computes pi on the pivots of region `r` from the states after them,
  /// then recurses into its subtrees in reverse elimination order, popping
  /// the factor stack. Subtrees whose factors were not kept are refactored
  /// first.
  void backsolve(const Rect& r, int depth, bool refactored) {
    if (!refactored && depth >= kKeepDepth) {
      factor(r, depth, true, false);
      backsolve(r, depth, true);
      return;
    }
    const bool leaf = r.leaf();
    const Split sp = leaf ? Split{r, {}, {}} : split(r);
    const Rect& pivots = leaf ? r : sp.sep;
    const std::size_t p = pivots.area();
    const std::size_t f = p + ring_size(r);
    const std::size_t packed = packed_size(p, f);
    flops += static_cast<double>(packed);
    factor_size_ -= packed;

    if constexpr (kNumeric) {
      ids_.clear();
      append_cells(pivots, ids_);
      append_ring(r, ids_);
      const double* columns = factors_.data() + factor_size_;
      for (std::size_t k = p; k-- > 0;) {
        const std::size_t len = f - 1 - k;
        const double* l = columns + k * (f - 1) - k * (k - 1) / 2;
        double acc = len == 0 ? 1.0 : 0.0;
        for (std::size_t t = 0; t < len; ++t) {
          acc += pi_[ids_[k + 1 + t]] * l[t];
        }
        pi_[ids_[k]] = acc;
        if (acc > kRescaleAbove) {
          for (double& v : pi_) v *= kRescaleBy;
        }
      }
      factors_.resize(factor_size_);
    }

    if (!leaf) {
      if (!sp.second.empty()) backsolve(sp.second, depth + 1, refactored);
      if (!sp.first.empty()) backsolve(sp.first, depth + 1, refactored);
    }
  }

  long ni_;
  long nj_;
  const CsrMatrix* rates_ = nullptr;
  std::size_t update_size_ = 0;
  std::size_t factor_size_ = 0;
  /// Numeric state: global state -> front index (-1 outside the front),
  /// the front, the two stacks, the front's states and extend-add scratch.
  std::vector<std::int32_t> pos_;
  Vector pi_;
  Vector front_;
  Vector updates_;
  Vector factors_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> ring_;
  std::vector<std::size_t> map_;
};

Walk<false> plan(std::size_t ni, std::size_t nj) {
  Walk<false> walk(static_cast<long>(ni), static_cast<long>(nj));
  walk.run();
  return walk;
}

}  // namespace

double nested_dissection_cost(std::size_t ni, std::size_t nj) {
  ESCHED_CHECK(ni >= 1 && nj >= 1, "grid must be non-empty");
  return plan(ni, nj).flops;
}

Vector nested_dissection_stationary(const CsrMatrix& rates,
                                    const Vector& exit_rates, std::size_t ni,
                                    std::size_t nj,
                                    StationarySolveInfo* info) {
  ESCHED_CHECK(ni >= 1 && nj >= 1, "grid must be non-empty");
  const std::size_t n = ni * nj;
  ESCHED_CHECK(n <= static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()),
               "nested dissection supports at most 2^31 - 1 states");
  ESCHED_CHECK(rates.rows() == n && rates.cols() == n,
               "rate matrix must be (ni * nj) x (ni * nj)");
  ESCHED_CHECK(exit_rates.size() == n, "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(
      check_generator(rates, exit_rates, "nested_dissection_stationary"));
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t e = 0; e < nnz; ++e) {
      const std::size_t t = to[e];
      const bool same_row = t / nj == s / nj;
      const bool neighbour = (same_row && (t + 1 == s || s + 1 == t)) ||
                             t + nj == s || s + nj == t;
      ESCHED_CHECK(neighbour, "transition " + std::to_string(s) + " -> " +
                                  std::to_string(t) +
                                  " does not join grid neighbours: nested "
                                  "dissection needs a 5-point grid chain");
    }
  }

  Walk<true> walk(static_cast<long>(ni), static_cast<long>(nj), rates,
                  plan(ni, nj));
  walk.run();
  Vector pi = std::move(walk.pi());
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(
      check_probability_vector(pi, "nested_dissection_stationary"));
  if (info != nullptr) {
    info->residual = stationary_residual(rates, exit_rates, pi);
  }
  return pi;
}

}  // namespace esched
