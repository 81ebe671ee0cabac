#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace esched {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ESCHED_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ESCHED_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  transpose_into(*this, t);
  return t;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  ESCHED_CHECK(a.cols() == b.rows(), "matrix shape mismatch in matmul");
  ESCHED_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
               "output shape mismatch in matmul_into");
  ESCHED_CHECK(&out != &a && &out != &b,
               "matmul_into output must not alias an input");
  const std::size_t inner = a.cols();
  const std::size_t width = b.cols();
  std::fill(out.data(), out.data() + out.rows() * width, 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.data() + i * width;
    for (std::size_t l = 0; l < inner; ++l) {
      const double ail = a(i, l);
      if (ail == 0.0) continue;
      const double* b_row = b.data() + l * width;
      for (std::size_t j = 0; j < width; ++j) out_row[j] += ail * b_row[j];
    }
  }
}

void transpose_into(const Matrix& a, Matrix& out) {
  ESCHED_CHECK(out.rows() == a.cols() && out.cols() == a.rows(),
               "output shape mismatch in transpose_into");
  ESCHED_CHECK(&out != &a, "transpose_into output must not alias its input");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  }
}

Vector vecmat(const Vector& x, const Matrix& a) {
  ESCHED_CHECK(x.size() == a.rows(), "shape mismatch in vecmat");
  Vector out(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) out[c] += xr * a(r, c);
  }
  return out;
}

void matvec_into(const Matrix& a, const Vector& x, Vector& out) {
  ESCHED_CHECK(x.size() == a.cols(), "shape mismatch in matvec");
  ESCHED_CHECK(out.size() == a.rows(), "output shape mismatch in matvec_into");
  ESCHED_CHECK(&out != &x, "matvec_into output must not alias its input");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    out[r] = acc;
  }
}

double dot(const Vector& a, const Vector& b) {
  ESCHED_CHECK(a.size() == b.size(), "shape mismatch in dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double sum(const Vector& x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double max_abs(const Matrix& a) {
  double best = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      best = std::max(best, std::abs(a(r, c)));
    }
  }
  return best;
}

double max_abs(const Vector& x) {
  double best = 0.0;
  for (double v : x) best = std::max(best, std::abs(v));
  return best;
}

void normalize_probability(Vector& x) {
  const double total = sum(x);
  ESCHED_CHECK(total > 0.0, "cannot normalize vector with non-positive sum");
  for (double& v : x) v /= total;
}

}  // namespace esched
