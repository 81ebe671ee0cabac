// Dense row-major matrix and vector helpers.
//
// The matrix-analytic solver works with small dense blocks (phase counts of
// a few dozen), so a straightforward dense implementation with contiguous
// storage is both simple and fast; no external BLAS is needed.
//
// Each product has one kernel, the *_into form: it writes a caller-owned
// output that already has the result's shape (checked, never resized), so
// a loop that reuses its buffers allocates nothing. The output must not
// alias an input (checked).
#pragma once

#include <cstddef>
#include <vector>

namespace esched {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Allocating wrapper over transpose_into.
  Matrix transpose() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix product a * b into `out` (a.rows() x b.cols()).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// a^T into `out` (a.cols() x a.rows()).
void transpose_into(const Matrix& a, Matrix& out);

/// Row-vector times matrix: (x^T A)^T.
Vector vecmat(const Vector& x, const Matrix& a);

/// Matrix times column vector A x into `out` (a.rows() entries).
void matvec_into(const Matrix& a, const Vector& x, Vector& out);

/// Dot product.
double dot(const Vector& a, const Vector& b);

/// Sum of entries.
double sum(const Vector& x);

/// Max-absolute-entry norm of a matrix.
double max_abs(const Matrix& a);

/// Max-absolute-entry norm of a vector.
double max_abs(const Vector& x);

/// Scales a vector in place so its entries sum to 1; requires positive sum.
void normalize_probability(Vector& x);

}  // namespace esched
