#include "markov/stationary.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/invariants.hpp"

namespace esched {

Vector gth_stationary(Matrix q) {
  // No generator-structure debug check here: the block solver feeds this
  // entry censored generators whose diagonal/row sums carry elimination
  // roundoff GTH is insensitive to. The CSR overload below checks instead.
  ESCHED_CHECK(q.rows() == q.cols(), "generator must be square");
  const std::size_t n = q.rows();
  ESCHED_CHECK(n >= 1, "generator must be non-empty");
  // GTH elimination uses only the off-diagonal (non-negative) rates and
  // performs no subtractions, so it is backward stable for probabilities.
  for (std::size_t m = n; m-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += q(m, j);
    ESCHED_CHECK(s > 0.0, "chain is reducible: state has no path down");
    for (std::size_t i = 0; i < m; ++i) q(i, m) /= s;
    for (std::size_t i = 0; i < m; ++i) {
      const double factor = q(i, m);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != i) q(i, j) += factor * q(m, j);
      }
    }
  }
  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t m = 1; m < n; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += pi[i] * q(i, m);
    pi[m] = acc;
  }
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "gth_stationary"));
  return pi;
}

Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  ESCHED_CHECK(exit_rates.size() == rates.rows(),
               "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(check_generator(rates, exit_rates, "gth_stationary"));
  Matrix q = rates.to_dense();
  for (std::size_t s = 0; s < rates.rows(); ++s) q(s, s) = -exit_rates[s];
  return gth_stationary(std::move(q));
}

double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi) {
  ESCHED_CHECK(pi.size() == rates.rows(), "pi dimension mismatch");
  Vector flow(rates.rows(), 0.0);
  for (std::size_t s = 0; s < rates.rows(); ++s) {
    flow[s] -= pi[s] * exit_rates[s];
    const std::size_t* to = rates.row_cols(s);
    const double* rate = rates.row_values(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) flow[to[k]] += pi[s] * rate[k];
  }
  return max_abs(flow);
}

std::vector<std::vector<std::size_t>> closed_classes(const CsrMatrix& rates) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  const std::size_t n = rates.rows();
  // Tarjan's strongly connected components, with an explicit stack of
  // (state, next out-edge) frames in place of recursion. A state is open
  // (on Tarjan's stack) while it has an index but no component.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> low(n, 0);
  std::vector<std::size_t> component(n, kNone);
  std::vector<std::size_t> open;
  std::vector<std::pair<std::size_t, std::size_t>> frames;
  std::size_t next_index = 0;
  std::size_t num_components = 0;
  const auto enter = [&](std::size_t v) {
    index[v] = low[v] = next_index++;
    open.push_back(v);
    frames.emplace_back(v, 0);
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    enter(root);
    while (!frames.empty()) {
      const std::size_t v = frames.back().first;
      const std::size_t edge = frames.back().second;
      if (edge < rates.row_nnz(v)) {
        ++frames.back().second;
        const std::size_t w = rates.row_cols(v)[edge];
        if (index[w] == kNone) {
          enter(w);
        } else if (component[w] == kNone) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().first;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] == index[v]) {
        std::size_t w = kNone;
        do {
          w = open.back();
          open.pop_back();
          component[w] = num_components;
        } while (w != v);
        ++num_components;
      }
    }
  }
  // A component is closed when no edge leaves it.
  std::vector<char> leaks(num_components, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    for (std::size_t k = 0; k < rates.row_nnz(s); ++k) {
      if (component[to[k]] != component[s]) leaks[component[s]] = 1;
    }
  }
  std::vector<std::size_t> slot(num_components, kNone);
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t c = component[s];
    if (leaks[c] != 0) continue;
    if (slot[c] == kNone) {
      slot[c] = classes.size();
      classes.emplace_back();
    }
    classes[slot[c]].push_back(s);
  }
  return classes;
}

}  // namespace esched
