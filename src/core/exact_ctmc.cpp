#include "core/exact_ctmc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/block_solver.hpp"
#include "markov/nested_dissection.hpp"
#include "markov/stationary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {

long suggested_truncation(double rho, double epsilon) {
  ESCHED_CHECK(rho >= 0.0 && rho < 1.0, "rho must be in [0,1)");
  ESCHED_CHECK(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
  if (rho == 0.0) return 16;
  const double levels = std::log(epsilon) / std::log(rho);
  return std::clamp(static_cast<long>(std::ceil(levels)), 16L, 400L);
}

namespace {

std::size_t state_index(long i, long j, long nj) {
  return static_cast<std::size_t>(i * nj + j);
}

/// Dense GTH solves chains (or closed classes) of at most this many
/// states; larger ones take the block method.
constexpr std::size_t kGthStateLimit = 500;

/// One direct elimination order for the block method: the levels of a
/// block-tridiagonal fold (`level_of`), or nested dissection of the chain's
/// grid (`level_of` null). `counter` is the exact.method.block.* counter a
/// solve in this order bumps, and `name` its last part, which the
/// exact.factor trace span reports as its ordering.
struct BlockOrdering {
  const std::vector<std::uint32_t>* level_of = nullptr;
  const char* counter = "";
  const char* name = "";
};

/// What a chain builder hands the solver: the generator, the block
/// method's level vectors along i and along j, and the ni x nj grid nested
/// dissection runs on (0 x 0 on the phase-type chain, which has none).
struct ChainLayout {
  const CsrMatrix& rates;
  const Vector& exit_rates;
  const std::vector<std::uint32_t>& level_by_i;
  const std::vector<std::uint32_t>& level_by_j;
  std::size_t ni = 0;
  std::size_t nj = 0;
};

/// The block method's ordering: the axis whose fold has the lower
/// block_solver_flop_estimate under this chain's rates (a tie keeps the
/// axis with more levels, i.e. smaller blocks), or nested dissection when
/// its exact count (the same for every policy) is strictly lower.
BlockOrdering cheapest_ordering(const ChainLayout& chain) {
  const auto top_level = [](const std::vector<std::uint32_t>& level_of) {
    return *std::max_element(level_of.begin(), level_of.end());
  };
  const double flops_i =
      block_solver_flop_estimate(chain.rates, chain.level_by_i);
  const double flops_j =
      block_solver_flop_estimate(chain.rates, chain.level_by_j);
  const bool by_j =
      flops_j < flops_i ||
      (flops_j == flops_i &&
       top_level(chain.level_by_j) > top_level(chain.level_by_i));
  if (chain.ni > 0 &&
      nested_dissection_cost(chain.ni, chain.nj) < std::min(flops_i, flops_j)) {
    return {nullptr, "exact.method.block.nd", "nd"};
  }
  return by_j ? BlockOrdering{&chain.level_by_j, "exact.method.block.axis.j",
                              "axis.j"}
              : BlockOrdering{&chain.level_by_i, "exact.method.block.axis.i",
                              "axis.i"};
}

/// Stationary law of an irreducible chain by dense GTH up to
/// kGthStateLimit states, else by the block method in the chain's
/// cheapest ordering, inside an exact.factor trace span (fields states and
/// ordering: gth, axis.i, axis.j or nd). Fills info's method and residual,
/// and points `counter` at the block ordering's counter. Throws Error when
/// the elimination meets a state with no path down (a reducible chain).
Vector eliminate(const ChainLayout& chain, StationarySolveInfo& info,
                 const char*& counter) {
  const std::size_t n = chain.rates.rows();
  if (n <= kGthStateLimit) {
    const TraceSpan span("exact.factor", {{"states", n}, {"ordering", "gth"}});
    Vector pi = gth_stationary(chain.rates, chain.exit_rates);
    info.residual = stationary_residual(chain.rates, chain.exit_rates, pi);
    info.method = "gth";
    return pi;
  }
  const BlockOrdering ordering = cheapest_ordering(chain);
  const TraceSpan span("exact.factor",
                       {{"states", n}, {"ordering", ordering.name}});
  Vector pi = ordering.level_of != nullptr
                  ? block_tridiagonal_stationary(chain.rates, chain.exit_rates,
                                                 *ordering.level_of, &info)
                  : nested_dissection_stationary(chain.rates, chain.exit_rates,
                                                 chain.ni, chain.nj, &info);
  info.method = "block";
  counter = ordering.counter;
  return pi;
}

/// Stationary law of a reducible chain: 0 off its closed class, and on the
/// class the law of the class's own chain, solved by eliminate(). No rate
/// leaves a closed class, so its states keep their exit rates; and since
/// the class is strongly connected and every transition moves a level by
/// at most one, its levels along each axis form a range, which is shifted
/// to start at 0. The class is not a full grid, so nested dissection is
/// not offered. Finding and extracting the class runs in an exact.factor
/// span with ordering closed_class. Throws when the chain has several
/// closed classes: its stationary law is then not unique.
Vector closed_class_stationary(const ChainLayout& chain,
                               StationarySolveInfo& info,
                               const char*& counter) {
  const std::size_t n = chain.rates.rows();
  std::vector<std::size_t> members;
  CsrMatrix rates;
  Vector exit_rates;
  std::vector<std::uint32_t> level_by_i;
  std::vector<std::uint32_t> level_by_j;
  {
    const TraceSpan span("exact.factor",
                         {{"states", n}, {"ordering", "closed_class"}});
    std::vector<std::vector<std::size_t>> classes =
        closed_classes(chain.rates);
    ESCHED_CHECK(classes.size() == 1,
                 "exact solve: the chain has " +
                     std::to_string(classes.size()) +
                     " closed classes, so its stationary law is not unique");
    members = std::move(classes.front());
    const std::size_t m = members.size();
    rates.begin_rows(m, m);
    exit_rates.resize(m);
    level_by_i.resize(m);
    level_by_j.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t s = members[r];
      const std::size_t* to = chain.rates.row_cols(s);
      const double* rate = chain.rates.row_values(s);
      for (std::size_t k = 0; k < chain.rates.row_nnz(s); ++k) {
        const auto local =
            std::lower_bound(members.begin(), members.end(), to[k]);
        rates.push(static_cast<std::size_t>(local - members.begin()),
                   rate[k]);
      }
      rates.next_row();
      exit_rates[r] = chain.exit_rates[s];
      level_by_i[r] = chain.level_by_i[s];
      level_by_j[r] = chain.level_by_j[s];
    }
    for (std::vector<std::uint32_t>* level_of : {&level_by_i, &level_by_j}) {
      const std::uint32_t low =
          *std::min_element(level_of->begin(), level_of->end());
      for (std::uint32_t& level : *level_of) level -= low;
    }
  }
  const Vector class_pi =
      eliminate({rates, exit_rates, level_by_i, level_by_j}, info, counter);
  Vector pi(n, 0.0);
  for (std::size_t r = 0; r < members.size(); ++r) {
    pi[members[r]] = class_pi[r];
  }
  return pi;
}

/// The one stationary-solver route: eliminate(), and when that throws (a
/// reducible chain, e.g. an idling policy that serves nobody in some
/// states), closed_class_stationary(). Records per-method solve-time /
/// state-count metrics, the counter of the block ordering that produced
/// the result, and exact.method.closed_class for a reducible chain.
std::pair<Vector, StationarySolveInfo> solve_stationary(
    const ChainLayout& chain) {
  const std::size_t n = chain.rates.rows();
  const auto start = std::chrono::steady_clock::now();
  Vector pi;
  StationarySolveInfo solve_info;
  const char* block_counter = nullptr;
  bool reducible = false;
  try {
    pi = eliminate(chain, solve_info, block_counter);
  } catch (const Error&) {
    pi = closed_class_stationary(chain, solve_info, block_counter);
    reducible = true;
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  MetricsRegistry& metrics = global_metrics();
  const std::string prefix = "exact.method." + solve_info.method;
  metrics.counter(prefix + ".solves").add();
  metrics.histogram(prefix + ".seconds").record(seconds);
  metrics.histogram(prefix + ".states").record(static_cast<double>(n));
  if (block_counter != nullptr) metrics.counter(block_counter).add();
  if (reducible) metrics.counter("exact.method.closed_class").add();
  return {std::move(pi), std::move(solve_info)};
}

/// The input checks both chain builders share.
void check_exact_inputs(const SystemParams& params,
                        const ExactCtmcOptions& options) {
  params.validate();
  ESCHED_CHECK(params.stable(), "exact solve requires rho < 1");
  ESCHED_CHECK(options.imax >= 1 && options.jmax >= 1,
               "truncation levels must be >= 1");
  ESCHED_CHECK(params.lambda_i + params.lambda_e > 0.0,
               "exact solve requires some arrivals");
}

/// Reads the means off a stationary law, state by state in index order:
/// state s holds level_by_i[s] inelastic and level_by_j[s] elastic jobs,
/// and it is on the truncation boundary when either count is at its limit.
ExactCtmcResult read_result(const SystemParams& params,
                            const ExactCtmcOptions& options, const Vector& pi,
                            const std::vector<std::uint32_t>& level_by_i,
                            const std::vector<std::uint32_t>& level_by_j,
                            StationarySolveInfo solve_info) {
  ExactCtmcResult result;
  result.num_states = pi.size();
  result.solve_info = std::move(solve_info);
  for (std::size_t s = 0; s < pi.size(); ++s) {
    const long i = level_by_i[s];
    const long j = level_by_j[s];
    const double p = pi[s];
    result.mean_jobs_i += static_cast<double>(i) * p;
    result.mean_jobs_e += static_cast<double>(j) * p;
    if (i == options.imax || j == options.jmax) result.boundary_mass += p;
  }
  const double total_lambda = params.lambda_i + params.lambda_e;
  result.mean_response_time =
      (result.mean_jobs_i + result.mean_jobs_e) / total_lambda;
  result.mean_response_time_i =
      params.lambda_i > 0.0 ? result.mean_jobs_i / params.lambda_i : 0.0;
  result.mean_response_time_e =
      params.lambda_e > 0.0 ? result.mean_jobs_e / params.lambda_e : 0.0;
  return result;
}

}  // namespace

ExactCtmcResult solve_exact_ctmc(const SystemParams& params,
                                 const AllocationPolicy& policy,
                                 const ExactCtmcOptions& options) {
  check_exact_inputs(params, options);
  const long ni = options.imax + 1;
  const long nj = options.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);

  // Build the generator row by row. Per state the (sorted) destinations
  // are s-nj (service_i), s-1 (service_e), s+1 (arrival_e), s+nj
  // (arrival_i); arrivals are dropped at the truncation boundary
  // (reflecting wall). The exit rate sums arrival_i, arrival_e, service_i,
  // service_e in that order, the order the solver's results are pinned in.
  CsrMatrix rates;
  Vector exit_rates(num_states, 0.0);
  std::vector<std::uint32_t> level_by_i(num_states);
  std::vector<std::uint32_t> level_by_j(num_states);
  {
    const TraceSpan build_span("exact.build", {{"states", num_states}});
    rates.begin_rows(num_states, num_states);
    for (long i = 0; i < ni; ++i) {
      for (long j = 0; j < nj; ++j) {
        const State state{i, j};
        policy.check_feasible(state, params);
        const Allocation a = policy.allocate(state, params);
        const std::size_t s = state_index(i, j, nj);
        double svc_i = 0.0;
        if (i > 0 && a.inelastic > 0.0) svc_i = a.inelastic * params.mu_i;
        // Bounded elasticity: only cap * j servers of the class allocation
        // can actually be used by elastic jobs.
        const double usable = params.usable_elastic(a.elastic, j);
        double svc_e = 0.0;
        if (j > 0 && usable > 0.0) svc_e = usable * params.mu_e;
        const bool arrival_i = i + 1 < ni && params.lambda_i > 0.0;
        const bool arrival_e = j + 1 < nj && params.lambda_e > 0.0;
        if (svc_i > 0.0) rates.push(state_index(i - 1, j, nj), svc_i);
        if (svc_e > 0.0) rates.push(state_index(i, j - 1, nj), svc_e);
        if (arrival_e) rates.push(state_index(i, j + 1, nj), params.lambda_e);
        if (arrival_i) rates.push(state_index(i + 1, j, nj), params.lambda_i);
        rates.next_row();
        double exit = 0.0;
        if (arrival_i) exit += params.lambda_i;
        if (arrival_e) exit += params.lambda_e;
        if (svc_i > 0.0) exit += svc_i;
        if (svc_e > 0.0) exit += svc_e;
        exit_rates[s] = exit;
        level_by_i[s] = static_cast<std::uint32_t>(i);
        level_by_j[s] = static_cast<std::uint32_t>(j);
      }
    }
  }

  auto [pi, solve_info] = solve_stationary(
      {rates, exit_rates, level_by_i, level_by_j, static_cast<std::size_t>(ni),
       static_cast<std::size_t>(nj)});
  return read_result(params, options, pi, level_by_i, level_by_j,
                     std::move(solve_info));
}

// ---------------------------------------------------------------------------
// Phase-type inelastic sizes: the augmented chain.

namespace {

/// Augmented state: c[s] in-service inelastic jobs in phase s, w waiting
/// inelastic jobs, j elastic jobs. i == sum(c) + w.
struct PhState {
  std::vector<int> c;
  long w = 0;
  long j = 0;
};

/// Hard ceiling on the enumerated reachable state space — past this the
/// stationary solve is hopeless anyway and the user should reach for the
/// simulator or a looser truncation.
constexpr std::size_t kMaxPhStates = 5000000;

/// Most phases the augmented chain accepts; C(k+m, m) seat configurations
/// per (w, j) cell grow combinatorially in m.
constexpr std::size_t kMaxPhPhases = 16;

class PhChainBuilder {
 public:
  PhChainBuilder(const SystemParams& params, const AllocationPolicy& policy,
                 const PhaseType& dist, const ExactCtmcOptions& options)
      : params_(params), policy_(policy), dist_(dist), options_(options),
        m_(dist.num_phases()),
        seat_cap_(std::min<long>(params.k, options.imax)),
        seat_cells_(static_cast<std::size_t>((options.imax + 1) *
                                             (options.jmax + 1))) {
    // Mixed-radix key capacity check: m digits of base (seat_cap + 1) plus
    // the w and j digits must fit a 64-bit key.
    long double capacity = 1.0L;
    for (std::size_t s = 0; s < m_; ++s) capacity *= seat_cap_ + 1;
    capacity *= options_.imax + 1;
    capacity *= options_.jmax + 1;
    ESCHED_CHECK(capacity < 9.2e18L,
                 "phase-type exact solve: state key space overflows; reduce "
                 "truncation or phase count, or use the sim backend");
  }

  std::size_t intern(const PhState& state) {
    const std::uint64_t key = encode(state);
    const auto [it, inserted] = index_.emplace(key, states_.size());
    if (inserted) {
      ESCHED_CHECK(states_.size() < kMaxPhStates,
                   "phase-type exact solve exceeds " +
                       std::to_string(kMaxPhStates) +
                       " states; reduce truncation or phase count, or use "
                       "the sim backend");
      states_.push_back(state);
    }
    return it->second;
  }

  /// The policy's inelastic seat count at (i, j). Throws on fractional
  /// allocations — the phase-count state only models whole servers.
  /// Memoized per (i, j): the augmentation visits each cell once per
  /// phase configuration, so the virtual allocate() would otherwise be
  /// recomputed C(k+m, m) times per cell in the hot enumeration loop.
  long seats_at(long i, long j, double* elastic_out = nullptr) {
    SeatCell& cell =
        seat_cells_[static_cast<std::size_t>(i * (options_.jmax + 1) + j)];
    if (cell.seats < 0) {
      const State state{i, j};
      policy_.check_feasible(state, params_);
      const Allocation a = policy_.allocate(state, params_);
      const long seats = std::lround(a.inelastic);
      ESCHED_CHECK(
          std::abs(a.inelastic - static_cast<double>(seats)) <= 1e-9,
          "policy '" + policy_.name() +
              "' allocates fractional servers to inelastic jobs; phase-type "
              "inelastic sizes need integral allocations (use the sim "
              "backend)");
      cell.seats = seats;
      cell.elastic = a.elastic;
    }
    if (elastic_out != nullptr) *elastic_out = cell.elastic;
    return cell.seats;
  }

  /// Emits the transitions of the event "the system just moved to
  /// (c, w, j)" from state `from` at total rate `rate`: waiting jobs are
  /// admitted into free seats (phases drawn iid from alpha), splitting the
  /// rate across the multinomial phase assignments.
  void emit_with_admissions(std::size_t from, PhState to, double rate) {
    const long started =
        std::accumulate(to.c.begin(), to.c.end(), 0L,
                        [](long acc, int v) { return acc + v; });
    const long i = started + to.w;
    const long seats = seats_at(i, to.j);
    const long admit = std::min(to.w, std::max(0L, seats - started));
    to.w -= admit;
    emit_phase_assignments(from, to, admit, 0, rate);
  }

  /// Builds the reachable chain from the empty system.
  void build() {
    (void)intern(PhState{std::vector<int>(m_, 0), 0, 0});
    const auto& t = dist_.sub_generator();
    const auto& exit = dist_.exit_rates();
    for (std::size_t n = 0; n < states_.size(); ++n) {
      // states_ grows during iteration; copy the current state.
      const PhState st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      const long i = started + st.w;
      double elastic_alloc = 0.0;
      const long seats = seats_at(i, st.j, &elastic_alloc);
      const bool active = seats >= started;
      if (!active) {
        ESCHED_CHECK(
            seats == 0,
            "policy '" + policy_.name() + "' preempts " +
                std::to_string(started - seats) + " of " +
                std::to_string(started) +
                " in-service inelastic jobs while keeping others running; "
                "phase-type inelastic sizes support only all-or-nothing "
                "preemption (use the sim backend)");
      }

      // Inelastic arrival (dropped at the boundary).
      if (i < options_.imax) {
        PhState to = st;
        to.w += 1;
        emit_with_admissions(n, std::move(to), params_.lambda_i);
      }
      // Elastic arrival.
      if (st.j < options_.jmax) {
        PhState to = st;
        to.j += 1;
        emit_with_admissions(n, std::move(to), params_.lambda_e);
      }
      // Phase progression and inelastic completions (served jobs only).
      if (active) {
        for (std::size_t s = 0; s < m_; ++s) {
          if (st.c[s] == 0) continue;
          const double count = static_cast<double>(st.c[s]);
          for (std::size_t s2 = 0; s2 < m_; ++s2) {
            if (s2 == s || t(s, s2) <= 0.0) continue;
            PhState to = st;
            to.c[s] -= 1;
            to.c[s2] += 1;
            add(n, intern(to), count * t(s, s2));
          }
          if (exit[s] > 0.0) {
            PhState to = st;
            to.c[s] -= 1;
            emit_with_admissions(n, std::move(to), count * exit[s]);
          }
        }
      }
      // Elastic completion (elastic sizes stay exponential).
      const double usable = params_.usable_elastic(elastic_alloc, st.j);
      if (st.j > 0 && usable > 0.0) {
        PhState to = st;
        to.j -= 1;
        emit_with_admissions(n, std::move(to), usable * params_.mu_e);
      }
    }
  }

  ExactCtmcResult solve() {
    CsrMatrix rates;
    Vector exit_rates;
    {
      const TraceSpan build_span("exact.build");
      build();
      // Each state's exit rate sums its transitions in insertion order.
      exit_rates.assign(states_.size(), 0.0);
      for (const CsrTriplet& t : triplets_) exit_rates[t.row] += t.value;
      rates = CsrMatrix::from_triplets(states_.size(), states_.size(),
                                       std::move(triplets_));
    }
    const std::size_t n = states_.size();

    // The augmented chain is level-structured both in i = sum(c) + w
    // (phase progression and admissions keep i, arrivals and completions
    // move it by one) and in j, so the block method folds along either.
    std::vector<std::uint32_t> level_by_i(n);
    std::vector<std::uint32_t> level_by_j(n);
    for (std::size_t s = 0; s < n; ++s) {
      const PhState& st = states_[s];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      level_by_i[s] = static_cast<std::uint32_t>(started + st.w);
      level_by_j[s] = static_cast<std::uint32_t>(st.j);
    }
    auto [pi, solve_info] =
        solve_stationary({rates, exit_rates, level_by_i, level_by_j});
    return read_result(params_, options_, pi, level_by_i, level_by_j,
                       std::move(solve_info));
  }

 private:
  std::uint64_t encode(const PhState& state) const {
    std::uint64_t key = 0;
    for (std::size_t s = 0; s < m_; ++s) {
      key = key * static_cast<std::uint64_t>(seat_cap_ + 1) +
            static_cast<std::uint64_t>(state.c[s]);
    }
    key = key * static_cast<std::uint64_t>(options_.imax + 1) +
          static_cast<std::uint64_t>(state.w);
    key = key * static_cast<std::uint64_t>(options_.jmax + 1) +
          static_cast<std::uint64_t>(state.j);
    return key;
  }

  /// Records one off-diagonal transition; a zero rate is dropped, and
  /// duplicate (from, to) pairs are summed by from_triplets in this order.
  void add(std::size_t from, std::size_t to, double rate) {
    ESCHED_CHECK(from != to, "self-loops are not allowed in a CTMC generator");
    ESCHED_CHECK(rate >= 0.0, "transition rate must be non-negative");
    if (rate > 0.0) triplets_.push_back({from, to, rate});
  }

  /// Distributes `admit` fresh jobs over the initial-phase distribution:
  /// phase s takes d of the remaining jobs with binomial weight
  /// C(n, d) alpha_s^d and the rest recurse into the later phases, which
  /// telescopes to the multinomial law (total emitted probability 1, since
  /// the alphas sum to 1). Zero-probability branches are pruned, so an
  /// Erlang (alpha = e_1) admission stays a single destination.
  void emit_phase_assignments(std::size_t from, const PhState& to, long admit,
                              std::size_t s, double weight) {
    if (admit == 0) {
      add(from, intern(to), weight);
      return;
    }
    ESCHED_ASSERT(s < m_, "phase assignment ran out of phases");
    const double alpha_s = dist_.alpha()[s];
    if (s + 1 == m_) {
      if (alpha_s <= 0.0) return;  // dead branch: jobs cannot start here
      PhState final = to;
      final.c[s] += static_cast<int>(admit);
      double w = weight;
      for (long d = 0; d < admit; ++d) w *= alpha_s;
      add(from, intern(final), w);
      return;
    }
    double choose = 1.0;
    double p_pow = 1.0;
    for (long d = 0; d <= admit; ++d) {
      if (p_pow > 0.0) {
        PhState next = to;
        next.c[s] += static_cast<int>(d);
        emit_phase_assignments(from, next, admit - d, s + 1,
                               weight * choose * p_pow);
      }
      choose = choose * static_cast<double>(admit - d) /
               static_cast<double>(d + 1);
      p_pow *= alpha_s;
    }
  }

  /// Memoized per-(i, j) policy decision (seats < 0 = not yet computed).
  struct SeatCell {
    long seats = -1;
    double elastic = 0.0;
  };

  const SystemParams& params_;
  const AllocationPolicy& policy_;
  const PhaseType& dist_;
  const ExactCtmcOptions& options_;
  const std::size_t m_;
  const long seat_cap_;
  std::vector<SeatCell> seat_cells_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<PhState> states_;
  std::vector<CsrTriplet> triplets_;
};

}  // namespace

ExactCtmcResult solve_exact_ctmc_ph(const SystemParams& params,
                                    const AllocationPolicy& policy,
                                    const PhaseType& size_dist_i,
                                    const ExactCtmcOptions& options) {
  check_exact_inputs(params, options);
  ESCHED_CHECK(size_dist_i.num_phases() <= kMaxPhPhases,
               "phase-type inelastic size has " +
                   std::to_string(size_dist_i.num_phases()) +
                   " phases; the exact backend supports at most " +
                   std::to_string(kMaxPhPhases) + " (use the sim backend)");
  PhChainBuilder builder(params, policy, size_dist_i, options);
  return builder.solve();
}

}  // namespace esched
