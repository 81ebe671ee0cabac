// LU factorization with partial pivoting, and the solves built on it.
//
// Buffer contract: solve_into writes a caller-owned output that already
// has the solution's shape (checked, never resized) and must not alias the
// right-hand side, so it allocates nothing; refactor() factors a new matrix
// in the existing storage, allocation-free while the dimension stays the
// same. A loop that reuses one factorization and its buffers therefore runs
// without touching the heap.
#pragma once

#include "linalg/matrix.hpp"

namespace esched {

/// LU factorization with partial pivoting of a square matrix. Throws
/// esched::Error when the matrix is numerically singular.
class LuFactorization {
 public:
  explicit LuFactorization(Matrix a);

  /// Replaces the factorization by that of `a`, reusing the storage.
  void refactor(const Matrix& a);

  std::size_t dim() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B for every column of B at once.
  Matrix solve(const Matrix& b) const;

  /// Solves A X = B into `x` (dim() x b.cols()). Each column gets exactly
  /// the floating-point operations, in order, of solve(Vector) on it.
  void solve_into(const Matrix& b, Matrix& x) const;

  /// Solves x^T A = b^T (i.e., A^T x = b) — the form stationary equations
  /// naturally take.
  Vector solve_transposed(const Vector& b) const;

 private:
  void decompose();
  void substitute(const double* b, std::size_t cols, double* x) const;

  Matrix lu_;
  std::vector<std::size_t> perm_;  // row permutation applied to inputs
};

}  // namespace esched
