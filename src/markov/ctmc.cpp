#include "markov/ctmc.hpp"

#include "common/error.hpp"

namespace esched {

SparseCtmc::SparseCtmc(std::size_t num_states)
    : num_states_(num_states), exit_rates_(num_states, 0.0) {
  ESCHED_CHECK(num_states > 0, "CTMC needs at least one state");
}

void SparseCtmc::add_rate(std::size_t from, std::size_t to, double rate) {
  ESCHED_CHECK(!frozen_, "cannot add transitions after freeze()");
  ESCHED_CHECK(from < num_states_ && to < num_states_,
               "transition endpoint out of range");
  ESCHED_CHECK(from != to, "self-loops are not allowed in a CTMC generator");
  ESCHED_CHECK(rate >= 0.0, "transition rate must be non-negative");
  if (rate == 0.0) return;
  pending_.push_back({from, to, rate});
  exit_rates_[from] += rate;
}

void SparseCtmc::freeze() {
  ESCHED_CHECK(!frozen_, "freeze() called twice");
  rates_ =
      CsrMatrix::from_triplets(num_states_, num_states_, std::move(pending_));
  pending_ = {};
  frozen_ = true;
}

double SparseCtmc::exit_rate(std::size_t state) const {
  ESCHED_CHECK(state < num_states_, "state out of range");
  return exit_rates_[state];
}

TransitionRange SparseCtmc::transitions_from(std::size_t state) const {
  ESCHED_CHECK(frozen_, "freeze() must be called before queries");
  ESCHED_CHECK(state < num_states_, "state out of range");
  return TransitionRange(state, rates_.row_cols(state),
                         rates_.row_values(state), rates_.row_nnz(state));
}

const CsrMatrix& SparseCtmc::rate_matrix() const {
  ESCHED_CHECK(frozen_, "freeze() must be called before queries");
  return rates_;
}

}  // namespace esched
