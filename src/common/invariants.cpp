#include "common/invariants.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esched::invariants {

namespace {

[[noreturn]] void fail(const char* where, const std::string& what) {
  throw Error(std::string("debug invariant violated in ") + where + ": " +
              what);
}

}  // namespace

void require(bool condition, const char* where, const std::string& what) {
  if (!condition) fail(where, what);
}

void check_generator(const CsrMatrix& rates, const Vector& exit_rates,
                     const char* where) {
  if (rates.rows() != rates.cols()) fail(where, "generator is not square");
  if (exit_rates.size() != rates.rows()) {
    fail(where, "exit-rate dimension mismatch");
  }
  for (std::size_t s = 0; s < rates.rows(); ++s) {
    const std::size_t* cols = rates.row_cols(s);
    const double* vals = rates.row_values(s);
    const std::size_t nnz = rates.row_nnz(s);
    double row_sum = 0.0;
    for (std::size_t k = 0; k < nnz; ++k) {
      if (cols[k] == s) {
        fail(where, "diagonal entry stored in off-diagonal rate matrix at "
                    "state " + std::to_string(s));
      }
      if (!std::isfinite(vals[k]) || vals[k] < 0.0) {
        fail(where, "negative or non-finite rate " + std::to_string(vals[k]) +
                    " at state " + std::to_string(s));
      }
      row_sum += vals[k];
    }
    const double exit = exit_rates[s];
    if (!std::isfinite(exit) || exit < 0.0) {
      fail(where, "negative or non-finite exit rate at state " +
                  std::to_string(s));
    }
    // Conservative generator: row sum of off-diagonals == exit rate, up to
    // accumulation roundoff relative to the row's magnitude.
    const double tol = 1e-9 * std::max(1.0, std::max(row_sum, exit));
    if (std::abs(row_sum - exit) > tol) {
      fail(where, "row " + std::to_string(s) + " is not conservative: rate "
                  "sum " + std::to_string(row_sum) + " vs exit rate " +
                  std::to_string(exit));
    }
  }
}

void check_probability_vector(const Vector& pi, const char* where) {
  if (pi.empty()) fail(where, "empty probability vector");
  double sum = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    const double p = pi[s];
    if (!std::isfinite(p)) {
      fail(where, "non-finite probability at state " + std::to_string(s));
    }
    if (p < -1e-12) {
      fail(where, "negative probability " + std::to_string(p) + " at state " +
                  std::to_string(s));
    }
    sum += p;
  }
  if (std::abs(sum - 1.0) > 1e-8) {
    fail(where, "probabilities sum to " + std::to_string(sum) + ", not 1");
  }
}

void check_csr(const CsrMatrix& m, const char* where) {
  const std::vector<std::size_t>& row_ptr = m.row_ptr();
  const std::vector<std::size_t>& col_idx = m.col_idx();
  if (row_ptr.size() != m.rows() + 1) {
    fail(where, "row_ptr size " + std::to_string(row_ptr.size()) +
                " does not match rows + 1");
  }
  if (row_ptr.front() != 0 || row_ptr.back() != col_idx.size()) {
    fail(where, "row_ptr does not cover col_idx exactly");
  }
  if (col_idx.size() != m.values().size()) {
    fail(where, "col_idx/values length mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      fail(where, "row_ptr not monotone at row " + std::to_string(r));
    }
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] >= m.cols()) {
        fail(where, "column index out of range at row " + std::to_string(r));
      }
      if (k > row_ptr[r] && col_idx[k - 1] >= col_idx[k]) {
        fail(where, "columns not strictly ascending in row " +
                    std::to_string(r));
      }
    }
  }
}

}  // namespace esched::invariants
