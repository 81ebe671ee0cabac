// The Theorem 3 experiment: on ANY fixed arrival sequence, IF's total work
// W(t) and inelastic work W_I(t) are pointwise at most those of every
// policy in P (work-conserving, inelastic-FCFS). We replay random traces
// under IF and several members of P and assert pointwise dominance at all
// breakpoints and midpoints of the piecewise-linear work paths.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/policies.hpp"
#include "sim/coupled.hpp"
#include "sim/trace.hpp"

namespace esched {
namespace {

struct CoupledCase {
  double mu_i;
  double mu_e;
  double rho;
  std::uint64_t seed;
};

class Theorem3Dominance : public testing::TestWithParam<CoupledCase> {};

TEST_P(Theorem3Dominance, IfDominatesClassP) {
  const CoupledCase& c = GetParam();
  const int k = 4;
  const SystemParams p = SystemParams::from_load(k, c.mu_i, c.mu_e, c.rho);
  const Trace trace = generate_trace(p, 400.0, c.seed);
  ASSERT_GT(trace.num_jobs(), 0u);

  const WorkPath if_path = run_on_trace(trace, p, InelasticFirst{});
  const std::vector<PolicyPtr> family = {
      make_elastic_first(), make_fair_share(), make_inelastic_cap(1),
      make_inelastic_cap(2), make_inelastic_cap(3)};
  for (const auto& policy : family) {
    const WorkPath other = run_on_trace(trace, p, *policy);
    const DominanceReport report = check_dominance(if_path, other);
    // Exact arithmetic would give 0; allow accumulated float error.
    EXPECT_LT(report.max_total_violation, 1e-7)
        << policy->name() << " total work, seed=" << c.seed;
    EXPECT_LT(report.max_inelastic_violation, 1e-7)
        << policy->name() << " inelastic work, seed=" << c.seed;
    EXPECT_GT(report.num_checkpoints, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TraceGrid, Theorem3Dominance,
    testing::Values(CoupledCase{1.0, 1.0, 0.6, 101},
                    CoupledCase{2.0, 1.0, 0.8, 102},
                    CoupledCase{0.25, 1.0, 0.9, 103},  // even when EF wins on E[T]!
                    CoupledCase{3.25, 1.0, 0.7, 104},
                    CoupledCase{1.0, 1.0, 0.95, 105}));

TEST(WorkPath, EvaluatesPiecewiseLinearly) {
  // Hand-built path: W = 4 at t=0 depleting at rate 2 until t=1, then
  // W = 2 depleting at rate 1.
  WorkPath path({{0.0, 4.0, 1.0, 2.0, 0.5}, {1.0, 2.0, 0.5, 1.0, 0.5}});
  EXPECT_DOUBLE_EQ(path.total_work_at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(path.total_work_at(0.5), 3.0);
  EXPECT_DOUBLE_EQ(path.total_work_at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(path.total_work_at(1.5), 1.5);
  EXPECT_DOUBLE_EQ(path.inelastic_work_at(0.5), 0.75);
}

TEST(WorkPath, WorkNeverNegative) {
  WorkPath path({{0.0, 1.0, 0.5, 10.0, 10.0}});
  EXPECT_DOUBLE_EQ(path.total_work_at(100.0), 0.0);
}

TEST(RunOnTrace, ConservesWork) {
  // Work drained by the end of the replay equals total arriving work.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const Trace trace = generate_trace(p, 100.0, 7);
  const WorkPath path = run_on_trace(trace, p, InelasticFirst{});
  // Work tracking accumulates float error proportional to total work.
  double total_work = 0.0;
  for (const TraceArrival& a : trace.arrivals) total_work += a.size;
  EXPECT_NEAR(path.samples().back().total_work, 0.0, 1e-9 * total_work);
  // The path starts with the first state's work (0 before any arrival).
  EXPECT_DOUBLE_EQ(path.samples().front().total_work, 0.0);
}

TEST(RunOnTrace, InitialBatchIsProcessed) {
  SystemParams p;
  p.k = 2;
  p.mu_i = 1.0;
  p.mu_e = 2.0;
  const Trace batch = initial_batch_trace({{0.0, false, 1.0},
                                           {0.0, false, 1.0},
                                           {0.0, true, 1.0}});
  const WorkPath path = run_on_trace(batch, p, InelasticFirst{});
  EXPECT_DOUBLE_EQ(path.samples().front().total_work, 3.0);
  EXPECT_DOUBLE_EQ(path.samples().back().total_work, 0.0);
  // IF serves both inelastic jobs first: with k=2 and unit sizes they
  // finish at t=1; the elastic job then takes 1/2 on 2 servers.
  EXPECT_DOUBLE_EQ(path.samples().back().time, 1.5);
}

TEST(RunOnTrace, EfOnInitialBatch) {
  SystemParams p;
  p.k = 2;
  p.mu_i = 1.0;
  p.mu_e = 2.0;
  const Trace batch = initial_batch_trace({{0.0, false, 1.0},
                                           {0.0, false, 1.0},
                                           {0.0, true, 1.0}});
  const WorkPath path = run_on_trace(batch, p, ElasticFirst{});
  // EF: elastic job on 2 servers finishes at 0.5; the two inelastic jobs
  // then run in parallel, finishing at 1.5.
  EXPECT_DOUBLE_EQ(path.samples().back().time, 1.5);
  EXPECT_DOUBLE_EQ(path.total_work_at(0.5), 2.0);
}

TEST(Trace, GeneratedTraceIsSortedAndSized) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.8);
  const Trace trace = generate_trace(p, 500.0, 42);
  EXPECT_GT(trace.num_jobs(), 100u);
  for (std::size_t n = 1; n < trace.arrivals.size(); ++n) {
    EXPECT_GE(trace.arrivals[n].time, trace.arrivals[n - 1].time);
  }
  for (const TraceArrival& a : trace.arrivals) EXPECT_GT(a.size, 0.0);
  // Expected arrivals ~ (lambda_i + lambda_e) * horizon; loose 3-sigma.
  const double expected =
      (p.lambda_i + p.lambda_e) * trace.horizon;
  EXPECT_NEAR(static_cast<double>(trace.num_jobs()), expected,
              4.0 * std::sqrt(expected));
}

TEST(Trace, ClassStreamsAreIndependent) {
  // Changing elastic parameters must not disturb the inelastic arrivals.
  SystemParams a = SystemParams::from_load(4, 1.0, 1.0, 0.8);
  SystemParams b = a;
  b.lambda_e *= 2.0;
  const Trace ta = generate_trace(a, 200.0, 9);
  const Trace tb = generate_trace(b, 200.0, 9);
  std::vector<double> ia, ib;
  for (const auto& arr : ta.arrivals) {
    if (!arr.elastic) ia.push_back(arr.time);
  }
  for (const auto& arr : tb.arrivals) {
    if (!arr.elastic) ib.push_back(arr.time);
  }
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t n = 0; n < ia.size(); ++n) EXPECT_EQ(ia[n], ib[n]);
}

}  // namespace
}  // namespace esched
