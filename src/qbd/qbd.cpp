#include "qbd/qbd.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "linalg/lu.hpp"

namespace esched {

namespace {

/// Logarithmic reduction stops once the max-abs increment of G falls below
/// this; R inherits the accuracy through one dense solve.
constexpr double kReductionTolerance = 1e-14;
/// Step n covers 2^n levels, so a reduction still moving after 64 steps has
/// stalled (null-recurrent or numerically critical process).
constexpr int kMaxReductionSteps = 64;

void check_nonnegative(const Matrix& m, const char* what) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      ESCHED_CHECK(m(r, c) >= 0.0, std::string("negative rate in ") + what);
    }
  }
}

void check_shape(const Matrix& m, std::size_t n, const char* what) {
  ESCHED_CHECK(m.rows() == n && m.cols() == n,
               std::string("bad block shape for ") + what);
}

/// Sum of row r of a rate matrix.
double row_sum(const Matrix& m, std::size_t r) {
  double acc = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) acc += m(r, c);
  return acc;
}

/// A1-style block: local off-diagonals plus the conservation diagonal
/// -(rowsum(up) + rowsum(local) + rowsum(down)).
Matrix with_diagonal(const Matrix& local, const Matrix& up,
                     const Matrix& down) {
  Matrix a1 = local;
  for (std::size_t r = 0; r < a1.rows(); ++r) {
    ESCHED_CHECK(local(r, r) == 0.0,
                 "local blocks must not carry diagonal entries");
    a1(r, r) = -(row_sum(up, r) + row_sum(local, r) + row_sum(down, r));
  }
  return a1;
}

/// Spectral radius via power iteration on |R| (R is non-negative here).
double spectral_radius(const Matrix& r) {
  const std::size_t n = r.rows();
  Vector v(n, 1.0);
  Vector next(n);
  double lambda = 0.0;
  for (int iter = 0; iter < 2000; ++iter) {
    matvec_into(r, v, next);
    const double norm = max_abs(next);
    if (norm == 0.0) return 0.0;
    for (double& x : next) x /= norm;
    if (std::abs(norm - lambda) < 1e-13 * std::max(1.0, norm)) {
      return norm;
    }
    lambda = norm;
    v.swap(next);
  }
  return lambda;
}

}  // namespace

void QbdProcess::validate() const {
  const std::size_t m = num_phases;
  ESCHED_CHECK(m > 0, "QBD needs at least one phase");
  ESCHED_CHECK(first_repeating >= 1, "first_repeating must be >= 1");
  ESCHED_CHECK(up.size() == first_repeating &&
                   local.size() == first_repeating &&
                   down.size() == first_repeating,
               "boundary block vectors must have first_repeating entries");
  for (std::size_t l = 0; l < first_repeating; ++l) {
    check_shape(up[l], m, "up");
    check_shape(local[l], m, "local");
    check_shape(down[l], m, "down");
    check_nonnegative(up[l], "up");
    check_nonnegative(local[l], "local");
    check_nonnegative(down[l], "down");
  }
  ESCHED_CHECK(max_abs(down[0]) == 0.0, "down[0] must be zero");
  check_shape(rep_up, m, "rep_up");
  check_shape(rep_local, m, "rep_local");
  check_shape(rep_down, m, "rep_down");
  check_nonnegative(rep_up, "rep_up");
  check_nonnegative(rep_local, "rep_local");
  check_nonnegative(rep_down, "rep_down");
}

QbdSolution solve_qbd(const QbdProcess& process) {
  process.validate();
  const std::size_t m = process.num_phases;
  const std::size_t big_l = process.first_repeating;  // L

  // Repeating generator blocks.
  const Matrix& a0 = process.rep_up;
  const Matrix a1 = with_diagonal(process.rep_local, process.rep_up,
                                  process.rep_down);
  const Matrix& a2 = process.rep_down;

  // Work buffers for the reduction, R and the residual, allocated once:
  // every matrix operation below writes into one of them, and `lu` is
  // refactored in place.
  Matrix h(m, m);
  Matrix l(m, m);
  Matrix t(m, m);
  Matrix g(m, m);
  Matrix u(m, m);
  Matrix increment(m, m);
  Matrix work(m, m);

  // --- Logarithmic reduction (Latouche & Ramaswami 1993) for G, the
  // minimal solution of A2 + A1 G + A0 G^2 = 0. Step n accumulates the
  // first-passage paths that go up to 2^n levels, so the increment T L
  // shrinks quadratically once the process is positive recurrent. ---
  const Matrix neg_a1 = a1 * -1.0;
  LuFactorization lu{neg_a1};
  lu.solve_into(a0, h);  // (-A1)^{-1} A0: one level up
  lu.solve_into(a2, l);  // (-A1)^{-1} A2: one level down
  g = l;
  t = h;
  const Matrix identity = Matrix::identity(m);
  int steps = 0;
  bool converged = false;
  while (!converged) {
    ESCHED_CHECK(steps < kMaxReductionSteps,
                 "QBD logarithmic reduction did not converge in " +
                     std::to_string(kMaxReductionSteps) +
                     " steps; is the process positive recurrent?");
    ++steps;
    u = identity;  // U = H L + L H; factor I - U
    matmul_into(h, l, work);
    u -= work;
    matmul_into(l, h, work);
    u -= work;
    lu.refactor(u);
    matmul_into(h, h, work);
    lu.solve_into(work, h);  // H <- (I - U)^{-1} H^2
    matmul_into(l, l, work);
    lu.solve_into(work, l);  // L <- (I - U)^{-1} L^2
    matmul_into(t, l, increment);
    g += increment;
    matmul_into(t, h, work);
    std::swap(t, work);  // T <- T H
    converged = max_abs(increment) < kReductionTolerance;
  }
  // R = A0 (-A1 - A0 G)^{-1}: right division, so factor the transpose and
  // solve (-A1 - A0 G)^T R^T = A0^T.
  matmul_into(a0, g, work);
  u = neg_a1;
  u -= work;
  transpose_into(u, work);
  lu.refactor(work);
  transpose_into(a0, u);
  lu.solve_into(u, h);
  Matrix r(m, m);
  transpose_into(h, r);

  // Residual of the quadratic equation as a convergence certificate:
  // u = A0 + R A1 + R^2 A2.
  u = a0;
  matmul_into(r, a1, work);
  u += work;
  matmul_into(r, r, t);
  matmul_into(t, a2, work);
  u += work;

  QbdSolution sol;
  sol.num_phases = m;
  sol.first_repeating = big_l;
  sol.r_iterations = steps;
  sol.r_residual = max_abs(u);
  sol.spectral_radius = spectral_radius(r);
  ESCHED_CHECK(sol.spectral_radius < 1.0 - 1e-9,
               "QBD is not positive recurrent (sp(R) >= 1); check stability");

  // --- Boundary system: unknowns pi_0..pi_L stacked into x (row vector).
  // Balance at levels 0..L with pi_{L+1} = pi_L R, plus normalization
  // sum_{l<L} pi_l 1 + pi_L (I-R)^{-1} 1 = 1 replacing one equation. ---
  const std::size_t n = (big_l + 1) * m;
  auto up_block = [&](std::size_t l) -> const Matrix& {
    return l < big_l ? process.up[l] : process.rep_up;
  };
  auto local_block = [&](std::size_t l) -> const Matrix& {
    return l < big_l ? process.local[l] : process.rep_local;
  };
  auto down_block = [&](std::size_t l) -> const Matrix& {
    return l < big_l ? process.down[l] : process.rep_down;
  };

  // Columns of `system` are equations; rows index unknowns, so that
  // x * system = rhs. Equation block for level l lives in columns [l*m,
  // (l+1)*m).
  Matrix system(n, n, 0.0);
  auto add_block = [&](std::size_t unknown_level, std::size_t eq_level,
                       const Matrix& block) {
    for (std::size_t r_ = 0; r_ < m; ++r_) {
      for (std::size_t c = 0; c < m; ++c) {
        system(unknown_level * m + r_, eq_level * m + c) += block(r_, c);
      }
    }
  };

  for (std::size_t l = 0; l <= big_l; ++l) {
    Matrix a1_l = with_diagonal(local_block(l), up_block(l), down_block(l));
    if (l < big_l) {
      add_block(l, l, a1_l);
      if (l + 1 <= big_l) add_block(l + 1, l, down_block(l + 1));
      if (l >= 1) add_block(l - 1, l, up_block(l - 1));
    } else {
      // Level L folds the tail in: pi_{L-1} U_{L-1} + pi_L (A1 + R A2) = 0.
      matmul_into(r, a2, work);
      a1_l += work;
      add_block(l, l, a1_l);
      if (l >= 1) add_block(l - 1, l, up_block(l - 1));
    }
  }

  // (I - R)^{-1} 1, needed for the normalization and the tail moments.
  u = identity;
  u -= r;
  lu.refactor(u);
  const Vector tail_weight = lu.solve(Vector(m, 1.0));

  // Replace equation column 0 by normalization (the generator's balance
  // equations are linearly dependent, so dropping one loses nothing).
  for (std::size_t l = 0; l <= big_l; ++l) {
    for (std::size_t r_ = 0; r_ < m; ++r_) {
      system(l * m + r_, 0) = (l < big_l) ? 1.0 : tail_weight[r_];
    }
  }
  Vector rhs(n, 0.0);
  rhs[0] = 1.0;

  // Solve x * system = rhs  <=>  system^T x^T = rhs.
  const Vector x = LuFactorization(system.transpose()).solve(rhs);

  sol.boundary.resize(big_l + 1);
  for (std::size_t l = 0; l <= big_l; ++l) {
    sol.boundary[l].assign(x.begin() + static_cast<long>(l * m),
                           x.begin() + static_cast<long>((l + 1) * m));
    for (double v : sol.boundary[l]) {
      ESCHED_ASSERT(v > -1e-9, "negative stationary probability");
    }
  }
  sol.r = std::move(r);
  return sol;
}

double QbdSolution::mean_level() const {
  ESCHED_CHECK(!boundary.empty(), "unsolved QBD solution");
  const std::size_t big_l = first_repeating;
  double mean = 0.0;
  for (std::size_t l = 0; l < big_l; ++l) {
    mean += static_cast<double>(l) * sum(boundary[l]);
  }
  // Tail: sum_{n>=0} (L+n) pi_L R^n 1
  //     = L pi_L (I-R)^{-1} 1 + pi_L R (I-R)^{-2} 1.
  const std::size_t m = num_phases;
  const Matrix i_minus_r = Matrix::identity(m) - r;
  const LuFactorization imr_lu{i_minus_r};
  const Vector w1 = imr_lu.solve(Vector(m, 1.0));   // (I-R)^{-1} 1
  const Vector w2 = imr_lu.solve(w1);               // (I-R)^{-2} 1
  const Vector& pi_l = boundary[big_l];
  mean += static_cast<double>(big_l) * dot(pi_l, w1);
  mean += dot(vecmat(pi_l, r), w2);
  return mean;
}

}  // namespace esched
