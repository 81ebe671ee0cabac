// Unit tests for the dense linear algebra substrate and the CSR sparse
// representation behind the stationary solvers.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/csr.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "rng/xoshiro.hpp"

namespace esched {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, IdentityAndArithmetic) {
  Matrix i2 = Matrix::identity(2);
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Matrix sum = a + i2;
  EXPECT_DOUBLE_EQ(sum(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - i2;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  EXPECT_THROW(a += Matrix(3, 3), Error);
}

TEST(Matrix, MatmulKnownProduct) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  }
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = v++;
  }
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  Matrix p(2, 2);
  matmul_into(a, b, p);
  EXPECT_DOUBLE_EQ(p(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 154.0);
}

TEST(Matrix, VectorProducts) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Vector xm = vecmat({1.0, 1.0}, a);  // [4, 6]
  EXPECT_DOUBLE_EQ(xm[0], 4.0);
  EXPECT_DOUBLE_EQ(xm[1], 6.0);
  Vector mx(2);
  matvec_into(a, {1.0, 1.0}, mx);  // [3, 7]
  EXPECT_DOUBLE_EQ(mx[0], 3.0);
  EXPECT_DOUBLE_EQ(mx[1], 7.0);
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_DOUBLE_EQ(sum(Vector{1.0, 2.0, 3.0}), 6.0);
}

TEST(Matrix, TransposeAndNorms) {
  Matrix a(2, 3);
  a(0, 2) = -5.0;
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), -5.0);
  EXPECT_DOUBLE_EQ(max_abs(a), 5.0);
}

TEST(Matrix, NormalizeProbability) {
  Vector v = {1.0, 3.0};
  normalize_probability(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  Vector zero = {0.0, 0.0};
  EXPECT_THROW(normalize_probability(zero), Error);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(3, 3);
  a(0, 0) = 2;  a(0, 1) = 1;  a(0, 2) = 1;
  a(1, 0) = 1;  a(1, 1) = 3;  a(1, 2) = 2;
  a(2, 0) = 1;  a(2, 1) = 0;  a(2, 2) = 0;
  // Solution of A x = [4, 5, 6]: x = [6, ...]. Compute expected via direct
  // elimination: x0 = 6 from row 2; 2*6 + x1 + x2 = 4 => x1 + x2 = -8;
  // 6 + 3 x1 + 2 x2 = 5 => 3 x1 + 2 x2 = -1 => x1 = 15, x2 = -23.
  const Vector x = LuFactorization(a).solve(Vector{4.0, 5.0, 6.0});
  EXPECT_NEAR(x[0], 6.0, 1e-12);
  EXPECT_NEAR(x[1], 15.0, 1e-12);
  EXPECT_NEAR(x[2], -23.0, 1e-12);
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  Matrix a(4, 4);
  // A well-conditioned nonsymmetric matrix.
  const double vals[4][4] = {{4, 1, 0, 2}, {1, 5, 1, 0}, {0, 1, 6, 1},
                             {2, 0, 1, 7}};
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = vals[r][c];
  }
  Matrix inv(4, 4);
  LuFactorization(a).solve_into(Matrix::identity(4), inv);
  Matrix prod(4, 4);
  matmul_into(a, inv, prod);
  EXPECT_LT(max_abs(prod - Matrix::identity(4)), 1e-12);
}

TEST(Lu, MatrixSolveMatchesColumnSolvesBitwise) {
  // The multi-right-hand-side solve must do, for every column, exactly the
  // floating-point operations of the single-vector solve. Small diagonals
  // (and a zero in the corner) force row swaps in the pivoting.
  Xoshiro256 rng(20240611);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-52 - 1.0;  // [-1, 1)
  };
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t cols = 1; cols <= 7; ++cols) {
      Matrix a(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          a(r, c) = r == c ? 1e-3 * uniform() : uniform();
        }
      }
      if (n > 1) a(0, 0) = 0.0;
      Matrix b(n, cols);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < cols; ++c) b(r, c) = uniform();
      }
      const LuFactorization lu(a);
      Matrix x(n, cols);
      lu.solve_into(b, x);
      for (std::size_t c = 0; c < cols; ++c) {
        Vector column(n);
        for (std::size_t r = 0; r < n; ++r) column[r] = b(r, c);
        const Vector expected = lu.solve(column);
        for (std::size_t r = 0; r < n; ++r) {
          EXPECT_EQ(x(r, c), expected[r])
              << "n=" << n << " cols=" << cols << " (" << r << ", " << c
              << ")";
        }
      }
    }
  }
}

TEST(Lu, SolveTransposedMatchesExplicitTranspose) {
  Matrix a(3, 3);
  const double vals[3][3] = {{3, 1, 0}, {1, 4, 2}, {0, 2, 5}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = vals[r][c] + (r == 0 && c == 2 ? 0.5 : 0.0);
  }
  const Vector b = {1.0, 2.0, 3.0};
  const Vector via_transposed = LuFactorization(a).solve_transposed(b);
  const Vector direct = LuFactorization(a.transpose()).solve(b);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(via_transposed[r], direct[r], 1e-12);
  }
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const Vector x = LuFactorization(a).solve(Vector{3.0, 4.0});  // [4, 3]
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, Error);
}

TEST(Csr, FromTripletsRoundTripsThroughDense) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      3, 4, {{2, 0, 5.0}, {0, 3, 1.0}, {0, 1, 2.0}, {1, 2, -3.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 4u);
  const Matrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 2), -3.0);
  EXPECT_DOUBLE_EQ(d(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
  // Rows are sorted by column regardless of triplet input order.
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_cols(0)[0], 1u);
  EXPECT_EQ(m.row_cols(0)[1], 3u);
}

TEST(Csr, FromTripletsMergesDuplicatesAndChecksBounds) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      2, 2, {{0, 1, 1.5}, {0, 1, 2.5}, {1, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.to_dense()(0, 1), 4.0);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}), Error);
}

TEST(Csr, StreamingRebuildReusesShape) {
  CsrMatrix m;
  m.begin_rows(2, 3);
  EXPECT_FALSE(m.complete());
  m.push(0, 1.0);
  m.push(2, 2.0);
  m.next_row();
  m.push(1, 3.0);
  m.next_row();
  ASSERT_TRUE(m.complete());
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.to_dense()(1, 1), 3.0);
  // Rebuild with different values and fewer entries: old contents vanish.
  m.begin_rows(2, 3);
  m.push(1, 9.0);
  m.next_row();
  m.next_row();
  ASSERT_TRUE(m.complete());
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.to_dense()(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(m.to_dense()(1, 1), 0.0);
}

}  // namespace
}  // namespace esched
