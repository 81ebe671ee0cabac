#include "linalg/csr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/invariants.hpp"

namespace esched {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<CsrTriplet> entries) {
  // Stable sort keeps duplicates in input order, so their merge sums in a
  // deterministic (insertion) order.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const CsrTriplet& a, const CsrTriplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  CsrMatrix m;
  m.begin_rows(rows, cols);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  std::size_t row = 0;
  for (const CsrTriplet& t : entries) {
    ESCHED_CHECK(t.row < rows && t.col < cols, "triplet index out of range");
    while (row < t.row) {
      m.next_row();
      ++row;
    }
    if (!m.col_idx_.empty() && m.row_ptr_.back() < m.col_idx_.size() &&
        m.col_idx_.back() == t.col) {
      m.values_.back() += t.value;
    } else {
      m.push(t.col, t.value);
    }
  }
  while (row < rows) {
    m.next_row();
    ++row;
  }
  ESCHED_DEBUG_CHECK(check_csr(m, "CsrMatrix::from_triplets"));
  return m;
}

void CsrMatrix::begin_rows(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  row_ptr_.clear();
  row_ptr_.reserve(rows + 1);
  row_ptr_.push_back(0);
  col_idx_.clear();
  values_.clear();
}

void CsrMatrix::push(std::size_t col, double value) {
  ESCHED_ASSERT(!complete(), "push() after the final next_row()");
  ESCHED_ASSERT(col < cols_, "column index out of range");
  ESCHED_ASSERT(col_idx_.size() == row_ptr_.back() ||
                    col_idx_.back() < col,
                "row entries must have strictly ascending columns");
  col_idx_.push_back(col);
  values_.push_back(value);
}

void CsrMatrix::next_row() {
  ESCHED_ASSERT(!complete(), "next_row() past the declared row count");
  row_ptr_.push_back(col_idx_.size());
}

void CsrMatrix::require_complete() const {
  ESCHED_ASSERT(complete(), "CSR matrix queried before construction finished");
}

Matrix CsrMatrix::to_dense() const {
  require_complete();
  Matrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace esched
