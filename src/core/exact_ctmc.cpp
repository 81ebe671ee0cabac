#include "core/exact_ctmc.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
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

/// Auto uses dense GTH elimination up to this many states; above it the
/// block method or SOR does better.
constexpr std::size_t kGthStateLimit = 500;

/// SOR's residual target, sweep cap and relaxation factor (omega = 1 is
/// Gauss-Seidel). GTH and the block method are direct.
constexpr double kSorTol = 1e-12;
constexpr int kSorMaxIters = 200000;
constexpr double kSorOmega = 1.0;

/// Workspace cap for the block method (block_solver_workspace_bytes per
/// axis, NestedDissectionCost::workspace_bytes). Orderings over it are not
/// considered; when none fits, auto falls back to SOR.
constexpr std::size_t kBlockMemoryLimit = std::size_t{4} << 30;

/// Auto takes the block method on the phase-type chain only when its
/// estimated elimination work stays below this (~a second or two of
/// arithmetic). Multi-server phase-augmented chains where nearly every
/// state receives a down-transition have effectively dense blocks, exceed
/// it and go to SOR, which scales with nnz * sweeps instead of block^3.
/// The exponential chain does not need it: nested dissection bounds its
/// direct elimination at O(n^1.5) work.
constexpr double kAutoBlockFlopLimit = 2e9;

/// One direct elimination order for the block method: the levels of a
/// block-tridiagonal fold (`level_of`), or nested dissection of the chain's
/// grid (`level_of` null). `counter` is the exact.method.block.* counter a
/// solve in this order bumps, and `name` its last part, which the
/// exact.factor trace span reports as its ordering.
struct BlockOrdering {
  const std::vector<std::uint32_t>* level_of = nullptr;
  const char* counter = "";
  const char* name = "";
  double flops = 0.0;
  std::size_t bytes = 0;
};

/// The block method as a chain offers it: the orderings in the order auto
/// tries them (the cheapest, then nested dissection when a level
/// elimination throws), the grid nested dissection runs on, and the
/// estimate above which auto prefers SOR. No ordering means none fits
/// kBlockMemoryLimit. Chains of at most kGthStateLimit states need none.
struct BlockPlan {
  std::vector<BlockOrdering> tries;
  std::size_t ni = 0;
  std::size_t nj = 0;
  double auto_flop_limit = std::numeric_limits<double>::infinity();
};

/// Runs auto, the one stationary-solver route: dense GTH up to
/// kGthStateLimit states, else the plan's orderings in turn; SOR when the
/// elimination that ran threw (a reducible chain).
/// Records per-method solve-time / state-count metrics and, for the block
/// method, the counter of the ordering that produced the result. Each
/// direct attempt runs in an exact.factor trace span (fields states and
/// ordering: gth, axis.i, axis.j or nd) and SOR in exact.iterate.
std::pair<Vector, StationarySolveInfo> solve_stationary(
    const CsrMatrix& rates, const Vector& exit_rates, const BlockPlan& plan) {
  const std::size_t n = rates.rows();
  const auto start = std::chrono::steady_clock::now();
  Vector pi;
  StationarySolveInfo solve_info;
  const char* block_counter = nullptr;
  if (n <= kGthStateLimit) {
    try {
      const TraceSpan span("exact.factor",
                           {{"states", n}, {"ordering", "gth"}});
      pi = gth_stationary(rates, exit_rates);
      solve_info.converged = true;
      solve_info.residual = stationary_residual(rates, exit_rates, pi);
      solve_info.method = "gth";
    } catch (const Error&) {
      // A state with no path down (a reducible chain, e.g. an idling
      // policy that serves nobody) leaves GTH a zero pivot; SOR still
      // solves the chain, as it does past the block method.
      global_metrics().counter("exact.method.gth.fallbacks").add();
    }
  } else if (!plan.tries.empty() &&
             plan.tries[0].flops <= plan.auto_flop_limit) {
    for (const BlockOrdering& ordering : plan.tries) {
      try {
        const TraceSpan span("exact.factor",
                             {{"states", n}, {"ordering", ordering.name}});
        pi = ordering.level_of != nullptr
                 ? block_tridiagonal_stationary(rates, exit_rates,
                                                *ordering.level_of,
                                                &solve_info)
                 : nested_dissection_stationary(rates, exit_rates, plan.ni,
                                                plan.nj, &solve_info);
        block_counter = ordering.counter;
        solve_info.method = "block";
        break;
      } catch (const Error&) {
        // Some policies (e.g. idling variants) leave a level with no
        // down-transitions, or a state with no path to the states after
        // it; move on to the next ordering and then to SOR, which still
        // solves the chain.
        global_metrics().counter("exact.method.block.fallbacks").add();
      }
    }
  }
  if (solve_info.method.empty()) {
    const TraceSpan span("exact.iterate", {{"states", n}});
    pi = sor_stationary(rates, exit_rates, kSorTol, kSorMaxIters, kSorOmega,
                        &solve_info);
    ESCHED_CHECK(solve_info.converged, "SOR did not converge in " +
                                           std::to_string(kSorMaxIters) +
                                           " sweeps");
    solve_info.method = "sor";
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
  if (solve_info.method == "sor") {
    metrics.histogram("exact.method.sor.sweeps")
        .record(static_cast<double>(solve_info.iterations));
  }
  return {std::move(pi), std::move(solve_info)};
}

}  // namespace

ExactCtmcBatch::ExactCtmcBatch(const SystemParams& params,
                               const ExactCtmcOptions& options)
    : params_(params), options_(options) {
  params_.validate();
  ESCHED_CHECK(params_.stable(), "exact solve requires rho < 1");
  ESCHED_CHECK(options_.imax >= 1 && options_.jmax >= 1,
               "truncation levels must be >= 1");
  ESCHED_CHECK(params_.lambda_i + params_.lambda_e > 0.0,
               "exact solve requires some arrivals");

  const long ni = options_.imax + 1;
  const long nj = options_.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);
  level_by_i_.resize(num_states);
  level_by_j_.resize(num_states);
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const std::size_t s = state_index(i, j, nj);
      level_by_i_[s] = static_cast<std::uint32_t>(i);
      level_by_j_[s] = static_cast<std::uint32_t>(j);
    }
  }
}

ExactCtmcResult ExactCtmcBatch::solve(const AllocationPolicy& policy) {
  const long ni = options_.imax + 1;
  const long nj = options_.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);

  // Build the generator row by row, reusing the scratch matrix's capacity
  // across solves. Per state the (sorted) destinations are s-nj
  // (service_i), s-1 (service_e), s+1 (arrival_e), s+nj (arrival_i);
  // arrivals are dropped at the truncation boundary (reflecting wall). The
  // exit rate sums arrival_i, arrival_e, service_i, service_e in that order,
  // the order the solver's results are pinned in.
  {
    const TraceSpan build_span("exact.build", {{"states", num_states}});
    scratch_rates_.begin_rows(num_states, num_states);
    scratch_exit_.assign(num_states, 0.0);
    for (long i = 0; i < ni; ++i) {
      for (long j = 0; j < nj; ++j) {
        const State state{i, j};
        policy.check_feasible(state, params_);
        const Allocation a = policy.allocate(state, params_);
        const std::size_t s = state_index(i, j, nj);
        double svc_i = 0.0;
        if (i > 0 && a.inelastic > 0.0) svc_i = a.inelastic * params_.mu_i;
        // Bounded elasticity: only cap * j servers of the class allocation
        // can actually be used by elastic jobs.
        const double usable = params_.usable_elastic(a.elastic, j);
        double svc_e = 0.0;
        if (j > 0 && usable > 0.0) svc_e = usable * params_.mu_e;
        const bool arrival_i = i + 1 < ni && params_.lambda_i > 0.0;
        const bool arrival_e = j + 1 < nj && params_.lambda_e > 0.0;
        if (svc_i > 0.0) {
          scratch_rates_.push(state_index(i - 1, j, nj), svc_i);
        }
        if (svc_e > 0.0) {
          scratch_rates_.push(state_index(i, j - 1, nj), svc_e);
        }
        if (arrival_e) {
          scratch_rates_.push(state_index(i, j + 1, nj), params_.lambda_e);
        }
        if (arrival_i) {
          scratch_rates_.push(state_index(i + 1, j, nj), params_.lambda_i);
        }
        scratch_rates_.next_row();
        double exit = 0.0;
        if (arrival_i) exit += params_.lambda_i;
        if (arrival_e) exit += params_.lambda_e;
        if (svc_i > 0.0) exit += svc_i;
        if (svc_e > 0.0) exit += svc_e;
        scratch_exit_[s] = exit;
      }
    }
  }

  // The block method takes the cheapest of three orderings: levels along
  // N_I, levels along N_E (both by their fold's flop estimate under this
  // policy) and nested dissection (its exact count, the same for every
  // policy). A tie between the axes keeps the longer one (more levels of
  // smaller blocks); nested dissection must be strictly cheaper. It is
  // also auto's retry when a level elimination throws.
  BlockPlan plan;
  if (num_states > kGthStateLimit) {
    plan.ni = static_cast<std::size_t>(ni);
    plan.nj = static_cast<std::size_t>(nj);
    const BlockOrdering by_i{
        &level_by_i_, "exact.method.block.axis.i", "axis.i",
        block_solver_flop_estimate(scratch_rates_, level_by_i_),
        block_solver_workspace_bytes(level_by_i_)};
    const BlockOrdering by_j{
        &level_by_j_, "exact.method.block.axis.j", "axis.j",
        block_solver_flop_estimate(scratch_rates_, level_by_j_),
        block_solver_workspace_bytes(level_by_j_)};
    const NestedDissectionCost nd_cost =
        nested_dissection_cost(plan.ni, plan.nj);
    const BlockOrdering nd{nullptr, "exact.method.block.nd", "nd",
                           nd_cost.flops, nd_cost.workspace_bytes};
    std::array<BlockOrdering, 3> orderings = {nj > ni ? by_j : by_i,
                                              nj > ni ? by_i : by_j, nd};
    std::stable_sort(orderings.begin(), orderings.end(),
                     [](const BlockOrdering& a, const BlockOrdering& b) {
                       return a.flops < b.flops;
                     });
    for (const BlockOrdering& ordering : orderings) {
      if (ordering.bytes > kBlockMemoryLimit) continue;
      if (plan.tries.empty() || ordering.level_of == nullptr) {
        plan.tries.push_back(ordering);
      }
      if (ordering.level_of == nullptr) break;
    }
  }
  auto [pi, solve_info] = solve_stationary(scratch_rates_, scratch_exit_, plan);

  ExactCtmcResult result;
  result.num_states = num_states;
  result.solve_info = solve_info;
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const double p = pi[state_index(i, j, nj)];
      result.mean_jobs_i += static_cast<double>(i) * p;
      result.mean_jobs_e += static_cast<double>(j) * p;
      if (i == options_.imax || j == options_.jmax) result.boundary_mass += p;
    }
  }
  const double total_lambda = params_.lambda_i + params_.lambda_e;
  result.mean_response_time =
      (result.mean_jobs_i + result.mean_jobs_e) / total_lambda;
  result.mean_response_time_i =
      params_.lambda_i > 0.0 ? result.mean_jobs_i / params_.lambda_i : 0.0;
  result.mean_response_time_e =
      params_.lambda_e > 0.0 ? result.mean_jobs_e / params_.lambda_e : 0.0;
  return result;
}

ExactCtmcResult solve_exact_ctmc(const SystemParams& params,
                                 const AllocationPolicy& policy,
                                 const ExactCtmcOptions& options) {
  return ExactCtmcBatch(params, options).solve(policy);
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
    const SparseCtmc chain = [&] {
      const TraceSpan build_span("exact.build");
      build();
      SparseCtmc built(states_.size());
      for (const CtmcTransition& tr : transitions_) {
        built.add_rate(tr.from, tr.to, tr.rate);
      }
      built.freeze();
      return built;
    }();

    // The augmented chain is level-structured in i = sum(c) + w: phase
    // progression and admissions preserve i, arrivals/completions move it
    // by one — so the block solver applies to it directly.
    std::vector<std::uint32_t> level_of(states_.size());
    for (std::size_t n = 0; n < states_.size(); ++n) {
      const PhState& st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      level_of[n] = static_cast<std::uint32_t>(started + st.w);
    }

    BlockPlan plan;
    plan.auto_flop_limit = kAutoBlockFlopLimit;
    if (states_.size() > kGthStateLimit) {
      const std::size_t bytes = block_solver_workspace_bytes(level_of);
      if (bytes <= kBlockMemoryLimit) {
        plan.tries.push_back(
            {&level_of, "exact.method.block.axis.i", "axis.i",
             block_solver_flop_estimate(chain.rate_matrix(), level_of),
             bytes});
      }
    }
    auto [pi, solve_info] =
        solve_stationary(chain.rate_matrix(), chain.exit_rates(), plan);

    ExactCtmcResult result;
    result.num_states = states_.size();
    result.solve_info = solve_info;
    for (std::size_t n = 0; n < states_.size(); ++n) {
      const PhState& st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      const long i = started + st.w;
      const double p = pi[n];
      result.mean_jobs_i += static_cast<double>(i) * p;
      result.mean_jobs_e += static_cast<double>(st.j) * p;
      if (i == options_.imax || st.j == options_.jmax) {
        result.boundary_mass += p;
      }
    }
    const double total_lambda = params_.lambda_i + params_.lambda_e;
    result.mean_response_time =
        (result.mean_jobs_i + result.mean_jobs_e) / total_lambda;
    result.mean_response_time_i =
        params_.lambda_i > 0.0 ? result.mean_jobs_i / params_.lambda_i : 0.0;
    result.mean_response_time_e =
        params_.lambda_e > 0.0 ? result.mean_jobs_e / params_.lambda_e : 0.0;
    return result;
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

  void add(std::size_t from, std::size_t to, double rate) {
    transitions_.push_back({from, to, rate});
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
  std::vector<CtmcTransition> transitions_;
};

}  // namespace

ExactCtmcResult solve_exact_ctmc_ph(const SystemParams& params,
                                    const AllocationPolicy& policy,
                                    const PhaseType& size_dist_i,
                                    const ExactCtmcOptions& options) {
  params.validate();
  ESCHED_CHECK(params.stable(), "exact solve requires rho < 1");
  ESCHED_CHECK(options.imax >= 1 && options.jmax >= 1,
               "truncation levels must be >= 1");
  ESCHED_CHECK(params.lambda_i + params.lambda_e > 0.0,
               "exact solve requires some arrivals");
  ESCHED_CHECK(size_dist_i.num_phases() <= kMaxPhPhases,
               "phase-type inelastic size has " +
                   std::to_string(size_dist_i.num_phases()) +
                   " phases; the exact backend supports at most " +
                   std::to_string(kMaxPhPhases) + " (use the sim backend)");
  PhChainBuilder builder(params, policy, size_dist_i, options);
  return builder.solve();
}

}  // namespace esched
