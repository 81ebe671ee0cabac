// Flat compressed-sparse-row (CSR) matrix.
//
// The truncated CTMC generators are >99% zeros, so the stationary solvers
// sweep flat row_ptr/col_idx/values arrays instead of nested vectors: one
// allocation per array and unit-stride inner loops. Only the structure
// lives here; what the entries *mean* (off-diagonal rates, implied
// diagonals) is the caller's business.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace esched {

/// One (row, col, value) entry for bulk construction.
struct CsrTriplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class CsrMatrix {
 public:
  /// Empty 0 x 0 matrix.
  CsrMatrix() = default;

  /// Builds from unordered triplets. Entries are stable-sorted by
  /// (row, col) and duplicates are merged by summation in input order, so
  /// construction is deterministic for any input order.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<CsrTriplet> entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_idx_.size(); }

  /// Row r occupies [row_ptr()[r], row_ptr()[r+1]) of col_idx()/values().
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  std::size_t row_nnz(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }
  const std::size_t* row_cols(std::size_t r) const {
    return col_idx_.data() + row_ptr_[r];
  }
  const double* row_values(std::size_t r) const {
    return values_.data() + row_ptr_[r];
  }

  /// Densifies (tests and the GTH bridge only; O(rows * cols) memory).
  Matrix to_dense() const;

  // -- Streaming (re)build --------------------------------------------------
  // For callers that build a matrix row by row (solve_exact_ctmc's grid
  // chain, a closed class's own chain): begin_rows() resets the matrix but
  // keeps the allocated capacity, push() appends an entry to the open row
  // (columns strictly ascending), next_row() closes it.
  // Exactly `rows` next_row() calls complete the build; queries before
  // completion throw.

  void begin_rows(std::size_t rows, std::size_t cols);
  void push(std::size_t col, double value);
  void next_row();
  bool complete() const { return row_ptr_.size() == rows_ + 1; }

 private:
  void require_complete() const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace esched
