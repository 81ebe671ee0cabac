// Sparse continuous-time Markov chain representation.
//
// States are dense indices 0..n-1; the caller owns the mapping from model
// states (e.g., (i, j) job counts) to indices. Only off-diagonal rates are
// stored; diagonals are implied by row sums. The build phase accumulates
// flat triplets; freeze() compacts them into a CsrMatrix so the stationary
// solvers sweep contiguous arrays instead of nested vectors.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"

namespace esched {

/// One off-diagonal transition of a CTMC.
struct CtmcTransition {
  std::size_t from;
  std::size_t to;
  double rate;
};

/// Lightweight random-access view of one state's outgoing transitions,
/// backed by a frozen chain's CSR row. Iteration yields CtmcTransition by
/// value, so existing range-for callers are unchanged.
class TransitionRange {
 public:
  TransitionRange(std::size_t from, const std::size_t* cols,
                  const double* rates, std::size_t size)
      : from_(from), cols_(cols), rates_(rates), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  CtmcTransition operator[](std::size_t k) const {
    return {from_, cols_[k], rates_[k]};
  }

  class iterator {
   public:
    using value_type = CtmcTransition;
    using difference_type = std::ptrdiff_t;

    iterator(const TransitionRange* range, std::size_t k)
        : range_(range), k_(k) {}
    CtmcTransition operator*() const { return (*range_)[k_]; }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator==(const iterator& other) const { return k_ == other.k_; }
    bool operator!=(const iterator& other) const { return k_ != other.k_; }

   private:
    const TransitionRange* range_;
    std::size_t k_;
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size_); }

 private:
  std::size_t from_;
  const std::size_t* cols_;
  const double* rates_;
  std::size_t size_;
};

/// Sparse CTMC: triplet builder before freeze(), flat CSR after.
class SparseCtmc {
 public:
  explicit SparseCtmc(std::size_t num_states);

  std::size_t num_states() const { return num_states_; }

  /// Adds an off-diagonal transition; rate must be >= 0 (zero is dropped),
  /// from != to. Duplicate (from, to) pairs accumulate.
  void add_rate(std::size_t from, std::size_t to, double rate);

  /// Compacts the pending triplets into CSR (sorting each row by
  /// destination and merging duplicates); must be called before queries.
  void freeze();

  bool frozen() const { return frozen_; }

  /// Total exit rate of a state (sum of off-diagonal rates).
  double exit_rate(std::size_t state) const;

  /// Transitions leaving `state` (valid after freeze()), sorted by
  /// destination. The view borrows the chain's storage; it is valid only
  /// while the chain is alive and unmodified.
  TransitionRange transitions_from(std::size_t state) const;

  /// The frozen off-diagonal rate matrix (CSR). The diagonal is implied:
  /// Q(s, s) = -exit_rate(s).
  const CsrMatrix& rate_matrix() const;

  /// All exit rates, indexed by state (valid before and after freeze()).
  const Vector& exit_rates() const { return exit_rates_; }

 private:
  std::size_t num_states_;
  bool frozen_ = false;
  std::vector<CsrTriplet> pending_;
  CsrMatrix rates_;
  Vector exit_rates_;
};

}  // namespace esched
