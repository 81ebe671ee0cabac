#include "linalg/lu.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esched {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) { decompose(); }

void LuFactorization::refactor(const Matrix& a) {
  lu_ = a;
  decompose();
}

void LuFactorization::decompose() {
  ESCHED_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry to the diagonal.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double cand = std::abs(lu_(r, col));
      if (cand > best) {
        best = cand;
        pivot = r;
      }
    }
    ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot, c), lu_(col, c));
      }
      std::swap(perm_[pivot], perm_[col]);
    }
    const double inv_diag = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_diag;
      lu_(r, col) = factor;  // store the multiplier in place
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

// Forward then back substitution for `cols` right-hand sides at once, row by
// row over row-major b and x (dim() x cols). Every column sees the
// operations of a one-column solve in the same order, so the bits do not
// depend on how many columns are solved together.
void LuFactorization::substitute(const double* b, std::size_t cols,
                                 double* x) const {
  const std::size_t n = dim();
  // Forward substitution with the permuted rhs.
  for (std::size_t r = 0; r < n; ++r) {
    double* x_r = x + r * cols;
    const double* b_r = b + perm_[r] * cols;
    for (std::size_t j = 0; j < cols; ++j) x_r[j] = b_r[j];
    for (std::size_t c = 0; c < r; ++c) {
      const double coeff = lu_(r, c);
      const double* x_c = x + c * cols;
      for (std::size_t j = 0; j < cols; ++j) x_r[j] -= coeff * x_c[j];
    }
  }
  // Back substitution.
  for (std::size_t r = n; r-- > 0;) {
    double* x_r = x + r * cols;
    for (std::size_t c = r + 1; c < n; ++c) {
      const double coeff = lu_(r, c);
      const double* x_c = x + c * cols;
      for (std::size_t j = 0; j < cols; ++j) x_r[j] -= coeff * x_c[j];
    }
    const double diag = lu_(r, r);
    for (std::size_t j = 0; j < cols; ++j) x_r[j] /= diag;
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  ESCHED_CHECK(b.size() == dim(), "rhs dimension mismatch in LU solve");
  Vector x(dim());
  substitute(b.data(), 1, x.data());
  return x;
}

void LuFactorization::solve_into(const Matrix& b, Matrix& x) const {
  ESCHED_CHECK(b.rows() == dim(), "rhs dimension mismatch in LU solve");
  ESCHED_CHECK(x.rows() == dim() && x.cols() == b.cols(),
               "output shape mismatch in LU solve_into");
  ESCHED_CHECK(&x != &b, "LU solve_into output must not alias the rhs");
  substitute(b.data(), b.cols(), x.data());
}

Vector LuFactorization::solve_transposed(const Vector& b) const {
  // Solve A^T x = b by solving U^T y = b then L^T z = y, undoing the row
  // permutation at the end (A = P^T L U ⇒ A^T = U^T L^T P).
  const std::size_t n = dim();
  ESCHED_CHECK(b.size() == n, "rhs dimension mismatch in LU solve");
  Vector y(n);
  // U^T is lower triangular: forward substitution.
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(c, r) * y[c];
    y[r] = acc / lu_(r, r);
  }
  // L^T is upper triangular with unit diagonal: back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(c, ri) * y[c];
    y[ri] = acc;
  }
  // x = P^T y: entry perm_[r] of x is y[r].
  Vector x(n);
  for (std::size_t r = 0; r < n; ++r) x[perm_[r]] = y[r];
  return x;
}

}  // namespace esched
