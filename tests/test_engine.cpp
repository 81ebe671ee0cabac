// Tests for the scenario-sweep engine: grid expansion, solver dispatch
// consistency against the underlying backends, dedupe and cache behavior, and
// thread-count determinism (a multi-thread sweep must be bit-identical to
// a single-thread sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/policies.hpp"
#include "engine/disk_cache.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "queueing/mmk.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/histogram.hpp"

namespace esched {
namespace {

/// A small mixed-solver scenario that exercises every backend cheaply.
Scenario small_scenario() {
  Scenario s;
  s.name = "test";
  s.k_values = {2, 4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kMmkBaseline};
  return s;
}

TEST(Scenario, GridExpansionCount) {
  const Scenario s = small_scenario();
  EXPECT_EQ(s.num_points(), 2u * 2u * 3u * 1u * 1u * 2u * 2u);
  const auto points = s.expand();
  ASSERT_EQ(points.size(), s.num_points());
  // Row-major order: solver varies fastest, then policy, then the axes.
  EXPECT_EQ(points[0].params.k, 2);
  EXPECT_EQ(points[0].policy, "IF");
  EXPECT_EQ(points[0].solver, SolverKind::kQbdAnalysis);
  EXPECT_EQ(points[1].policy, "IF");
  EXPECT_EQ(points[1].solver, SolverKind::kMmkBaseline);
  EXPECT_EQ(points[2].policy, "EF");
  EXPECT_EQ(points.back().params.k, 4);
  EXPECT_NEAR(points.back().params.rho(), 0.7, 1e-12);
  // lambda_I == lambda_E by the paper's convention.
  for (const auto& point : points) {
    EXPECT_DOUBLE_EQ(point.params.lambda_i, point.params.lambda_e);
  }
}

TEST(Scenario, ValidateRejectsBadAxes) {
  Scenario s = small_scenario();
  s.policies.clear();
  EXPECT_THROW(s.expand(), Error);
  s = small_scenario();
  s.rho_values = {1.2};
  EXPECT_THROW(s.expand(), Error);
  s = small_scenario();
  s.policies = {"NotAPolicy"};
  EXPECT_THROW(s.expand(), Error);
}

TEST(Scenario, BuiltinsExpandToExpectedSizes) {
  for (const auto& name : builtin_scenario_names()) {
    EXPECT_NO_THROW(builtin_scenario(name).expand()) << name;
  }
  EXPECT_EQ(builtin_scenario("fig4").num_points(), 3u * 14u * 14u * 2u);
  EXPECT_EQ(builtin_scenario("fig5").num_points(), 3u * 14u * 2u);
  EXPECT_EQ(builtin_scenario("fig6").num_points(), 15u * 2u * 2u);
  EXPECT_EQ(builtin_scenario("optimality-family").num_points(), 9u * 5u);
  EXPECT_EQ(builtin_scenario("analysis-accuracy").num_points(), 7u * 2u * 3u);
  EXPECT_EQ(builtin_scenario("tail-latency").num_points(), 3u * 2u);
  EXPECT_EQ(builtin_scenario("ablation-truncation").num_points(),
            2u * 6u * 2u);
  EXPECT_EQ(builtin_scenario("ablation-coxian").num_points(),
            6u * 3u * 2u * 2u);
  EXPECT_EQ(builtin_scenario("dominance-thm3").num_points(), 5u * 5u);
  EXPECT_THROW(builtin_scenario("no-such-scenario"), Error);
}

TEST(Scenario, CaseAndAxisExpansionOrder) {
  Scenario s;
  s.name = "cases-order";
  s.cases = {{2, 1.0, 1.0, 0.5, 0}, {4, 2.0, 1.0, 0.7, 0}};
  s.trunc_values = {10, 20};
  s.fit_orders = {1, 3};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc};
  EXPECT_EQ(s.num_points(), 2u * 2u * 2u * 2u * 2u);
  const auto points = s.expand();
  ASSERT_EQ(points.size(), s.num_points());
  // Row-major: solver fastest, then policy, fit, truncation, case.
  EXPECT_EQ(points[0].solver, SolverKind::kQbdAnalysis);
  EXPECT_EQ(points[1].solver, SolverKind::kExactCtmc);
  EXPECT_EQ(points[2].policy, "EF");
  EXPECT_EQ(points[0].options.fit_order, BusyFitOrder::kOneMoment);
  EXPECT_EQ(points[4].options.fit_order, BusyFitOrder::kThreeMoment);
  EXPECT_EQ(points[0].options.imax, 10);
  EXPECT_EQ(points[8].options.imax, 20);
  EXPECT_EQ(points[0].params.k, 2);
  EXPECT_EQ(points[16].params.k, 4);
  EXPECT_NEAR(points[16].params.rho(), 0.7, 1e-12);
}

TEST(Scenario, CacheKeyDistinguishesAndMatches) {
  const auto points = small_scenario().expand();
  RunPoint a = points[0];  // qbd point
  RunPoint b = points[0];
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.seed(), b.seed());
  b.policy = "EF";
  EXPECT_NE(a.cache_key(), b.cache_key());
  b = a;
  b.solver = SolverKind::kSimulation;
  b.options.base_seed = 2;
  EXPECT_NE(a.cache_key(), b.cache_key());
  EXPECT_NE(a.seed(), b.seed());
}

TEST(Scenario, CacheKeyIsBackendCanonical) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  // A solver ignores axes it never reads: the QBD key is invariant in the
  // truncation and seed, the exact key in the fit order and seed, the sim
  // key in the fit order — so ablation axes collapse to one solve each.
  RunPoint qbd{p, "IF", SolverKind::kQbdAnalysis, {}};
  RunPoint qbd2 = qbd;
  qbd2.options.imax = qbd2.options.jmax = 40;
  qbd2.options.base_seed = 7;
  EXPECT_EQ(qbd.cache_key(), qbd2.cache_key());
  qbd2.options.fit_order = BusyFitOrder::kOneMoment;
  EXPECT_NE(qbd.cache_key(), qbd2.cache_key());

  RunPoint exact{p, "IF", SolverKind::kExactCtmc, {}};
  RunPoint exact2 = exact;
  exact2.options.fit_order = BusyFitOrder::kOneMoment;
  exact2.options.base_seed = 7;
  exact2.options.sim_jobs = 99;
  EXPECT_EQ(exact.cache_key(), exact2.cache_key());
  exact2.options.imax = 40;
  EXPECT_NE(exact.cache_key(), exact2.cache_key());
  // Every exact key carries the solver-path revision, so a warm cache
  // from before nested-dissection ordering misses.
  EXPECT_NE(exact.cache_key().find(";rev=4"), std::string::npos);
  // QBD keys carry their own revision: rows from the Neuts fixed point
  // (different iteration counts and last digits) and rows whose residual
  // column holds sp(R) must miss.
  EXPECT_NE(qbd.cache_key().find(";fit=3;rev=2"), std::string::npos);

  RunPoint sim{p, "IF", SolverKind::kSimulation, {}};
  RunPoint sim2 = sim;
  sim2.options.fit_order = BusyFitOrder::kOneMoment;
  EXPECT_EQ(sim.cache_key(), sim2.cache_key());
  sim2.options.sim_tails = true;
  EXPECT_NE(sim.cache_key(), sim2.cache_key());
}

TEST(Scenario, CacheKeyBytesArePinned) {
  // Keys name the disk-cache entries: their bytes change only with a
  // deliberate ;rev= bump, never with how doubles are formatted (printf
  // "%.17g" bytes, round-trippable, exponent when it is shorter).
  const RunPoint qbd{SystemParams::from_load(4, 0.35, 1.3, 0.7), "IF",
                     SolverKind::kQbdAnalysis, {}};
  EXPECT_EQ(qbd.cache_key(),
            "k=4;li=0.77212121212121199;le=0.77212121212121199;"
            "mi=0.34999999999999998;me=1.3;cap=0;policy=IF;solver=qbd;"
            "fit=3;rev=2");

  SystemParams edge;
  edge.k = 2;
  edge.lambda_i = 0.1;
  edge.lambda_e = 1.0 / 3.0;
  edge.mu_i = 5e-324;
  edge.mu_e = 1e21;
  RunPoint exact{edge, "EF", SolverKind::kExactCtmc, {}};
  exact.options.truncation_epsilon = 123456789012345678.0;
  EXPECT_EQ(exact.cache_key(),
            "k=2;li=0.10000000000000001;le=0.33333333333333331;"
            "mi=4.9406564584124654e-324;me=1e+21;cap=0;policy=EF;"
            "solver=exact;eps=1.2345678901234568e+17;imax=0;jmax=0;rev=4");

  // The trace horizon/seed and the tail histogram shape are constants;
  // their key suffixes keep the bytes the old options wrote, so warm
  // caches and every point's seed stay the same.
  const RunPoint trace{edge, "IF", SolverKind::kTraceDominance, {}};
  EXPECT_EQ(trace.cache_key(),
            "k=2;li=0.10000000000000001;le=0.33333333333333331;"
            "mi=4.9406564584124654e-324;me=1e+21;cap=0;policy=IF;"
            "solver=trace;horizon=1500;tseed=2026");

  RunPoint sim{edge, "IF", SolverKind::kSimulation, {}};
  sim.options.sim_tails = true;
  EXPECT_EQ(sim.cache_key(),
            "k=2;li=0.10000000000000001;le=0.33333333333333331;"
            "mi=4.9406564584124654e-324;me=1e+21;cap=0;policy=IF;"
            "solver=sim;jobs=200000;warmup=20000;seed=1;"
            "tails=1;span=400;bins=20000");
}

TEST(Scenario, MakePolicyParsesSpecs) {
  EXPECT_EQ(make_policy("IF")->name(), make_inelastic_first()->name());
  EXPECT_EQ(make_policy("EF")->name(), make_elastic_first()->name());
  EXPECT_EQ(make_policy("Cap2")->name(), make_inelastic_cap(2)->name());
  EXPECT_EQ(make_policy("IF+idle1")->name(),
            make_idling(make_inelastic_first(), 1.0)->name());
  EXPECT_THROW(make_policy("CapX"), Error);
  EXPECT_THROW(make_policy("bogus"), Error);
}

TEST(Scenario, SolverNamesRoundTrip) {
  for (const SolverKind kind :
       {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
        SolverKind::kSimulation, SolverKind::kMmkBaseline,
        SolverKind::kTraceDominance}) {
    EXPECT_EQ(parse_solver(solver_name(kind)), kind);
  }
  EXPECT_THROW(parse_solver("fancy"), Error);
}

TEST(Dispatch, QbdMatchesDirectAnalysis) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  const RunPoint point{p, "EF", SolverKind::kQbdAnalysis, {}};
  const RunResult result = dispatch_run(point);
  const ResponseTimeAnalysis direct = analyze_elastic_first(p);
  EXPECT_DOUBLE_EQ(result.mean_response_time, direct.mean_response_time);
  EXPECT_DOUBLE_EQ(result.mean_jobs_i, direct.mean_jobs_i);
  EXPECT_EQ(result.solver_iterations, direct.qbd_iterations);
}

TEST(Dispatch, ExactMatchesDirectSolveAndReportsSolveInfo) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  RunPoint point{p, "FairShare", SolverKind::kExactCtmc, {}};
  point.options.imax = point.options.jmax = 40;
  const RunResult result = dispatch_run(point);
  ExactCtmcOptions options;
  options.imax = options.jmax = 40;
  const ExactCtmcResult direct =
      solve_exact_ctmc(p, *make_fair_share(), options);
  EXPECT_DOUBLE_EQ(result.mean_response_time, direct.mean_response_time);
  EXPECT_DOUBLE_EQ(result.boundary_mass, direct.boundary_mass);
  // 41x41 states > auto's 500-state GTH limit, so it picks the direct
  // block solver: no iterations, and the residual still surfaces through
  // the result.
  EXPECT_EQ(direct.solve_info.method, "block");
  EXPECT_EQ(result.solver_iterations, 0);
  EXPECT_LT(result.solve_residual, 1e-11);
}

TEST(Dispatch, GthPathReportsItsMethodAndResidual) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions options;
  options.imax = options.jmax = 15;  // 256 states: auto picks GTH
  const ExactCtmcResult direct =
      solve_exact_ctmc(p, *make_inelastic_first(), options);
  EXPECT_EQ(direct.solve_info.method, "gth");
  EXPECT_LT(direct.solve_info.residual, 1e-10);
}

TEST(Dispatch, MmkBaselineMatchesClosedForms) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.6);
  const RunPoint point{p, "IF", SolverKind::kMmkBaseline, {}};
  const RunResult result = dispatch_run(point);
  const MMk inelastic(p.lambda_i, p.mu_i, p.k);
  EXPECT_DOUBLE_EQ(result.mean_response_time_i,
                   inelastic.mean_response_time());
  const MMk elastic(p.lambda_e, p.k * p.mu_e, 1);
  EXPECT_DOUBLE_EQ(result.mean_response_time_e, elastic.mean_response_time());
}

TEST(Dispatch, RejectsInvalidCombinations) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  // The QBD analyses cover only IF and EF on the base model.
  EXPECT_THROW(
      dispatch_run(RunPoint{p, "FairShare", SolverKind::kQbdAnalysis, {}}),
      Error);
  SystemParams capped = p;
  capped.elastic_cap = 1;
  EXPECT_THROW(
      dispatch_run(RunPoint{capped, "EF", SolverKind::kQbdAnalysis, {}}),
      Error);
}

TEST(SweepRunner, CacheHitsWithinAndAcrossRuns) {
  Scenario s = small_scenario();
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto base = s.expand();
  const std::size_t unique = base.size();
  // Duplicate every point: the duplicates must be served from cache.
  auto points = base;
  points.insert(points.end(), base.begin(), base.end());

  const std::string dir = testing::TempDir() + "esched_cache_hits_test";
  std::filesystem::remove_all(dir);
  SweepRunner runner(2);
  runner.set_cache_dir(dir);
  SweepStats stats;
  const auto first = runner.run(points, &stats);
  EXPECT_EQ(stats.total_points, 2 * unique);
  EXPECT_EQ(stats.solved_points, unique);
  EXPECT_EQ(stats.cache_hits, unique);
  EXPECT_EQ(stats.disk_hits, 0u);
  for (std::size_t n = 0; n < unique; ++n) {
    EXPECT_FALSE(first[n].from_cache);
    EXPECT_TRUE(first[n + unique].from_cache);
    EXPECT_TRUE(numerically_equal(first[n], first[n + unique]));
  }

  // A second run over the same points is all cache hits: each distinct
  // key loads from the cache directory once, its repeat is a duplicate.
  SweepStats again;
  const auto second = runner.run(points, &again);
  EXPECT_EQ(again.solved_points, 0u);
  EXPECT_EQ(again.cache_hits, 2 * unique);
  EXPECT_EQ(again.disk_hits, unique);
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(second[n].from_cache);
    EXPECT_TRUE(numerically_equal(first[n], second[n]));
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, MultiThreadSweepIsBitIdenticalToSingleThread) {
  // Mix all four backends, including seeded simulation, and require the
  // 4-thread pool to reproduce the 1-thread results bit for bit.
  Scenario s = small_scenario();
  s.k_values = {2};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
               SolverKind::kSimulation, SolverKind::kMmkBaseline};
  s.options.imax = s.options.jmax = 30;
  s.options.sim_jobs = 4000;
  s.options.sim_warmup = 400;
  const auto points = s.expand();

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto serial_results = serial.run(points);
  const auto parallel_results = parallel.run(points);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(numerically_equal(serial_results[n], parallel_results[n]))
        << "point " << points[n].cache_key();
  }
}

TEST(SweepRunner, PropagatesSolverErrors) {
  SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  std::vector<RunPoint> points = {
      {p, "IF", SolverKind::kQbdAnalysis, {}},
      {p, "FairShare", SolverKind::kQbdAnalysis, {}},  // invalid combo
  };
  const std::string dir = testing::TempDir() + "esched_solver_errors_test";
  std::filesystem::remove_all(dir);
  SweepRunner runner(2);
  runner.set_cache_dir(dir);
  EXPECT_THROW(runner.run(points), Error);
  // The valid point still landed in the cache directory: a fresh runner
  // loads it instead of solving it.
  SweepRunner fresh(2);
  fresh.set_cache_dir(dir);
  SweepStats stats;
  fresh.run({points[0]}, &stats);
  EXPECT_EQ(stats.solved_points, 0u);
  EXPECT_EQ(stats.disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Dispatch, TraceDominanceReportsNoViolationsForFamily) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  RunPoint point{p, "FairShare", SolverKind::kTraceDominance, {}};
  const RunResult result = dispatch_run(point);
  // Theorem 3: IF never exceeds a class-P policy's work path (float noise
  // only), IF keeps less work on average, and checkpoints were compared.
  EXPECT_LT(result.dom_max_violation, 1e-6);
  EXPECT_LT(result.dom_max_violation_i, 1e-6);
  EXPECT_GE(result.dom_avg_gap, 0.0);
  EXPECT_GT(result.dom_checkpoints, 0);
  // Same trace, IF vs IF: identically zero.
  RunPoint self = point;
  self.policy = "IF";
  const RunResult same = dispatch_run(self);
  EXPECT_EQ(same.dom_max_violation, 0.0);
  EXPECT_EQ(same.dom_avg_gap, 0.0);
}

TEST(Dispatch, SimTailsFillPercentiles) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  RunPoint point{p, "IF", SolverKind::kSimulation, {}};
  point.options.sim_jobs = 4000;
  point.options.sim_warmup = 400;
  point.options.sim_tails = true;
  const RunResult result = dispatch_run(point);
  EXPECT_GT(result.p50_i, 0.0);
  EXPECT_LE(result.p50_i, result.p95_i);
  EXPECT_LE(result.p95_i, result.p99_i);
  EXPECT_LE(result.p50_e, result.p99_e);
  RunPoint plain = point;
  plain.options.sim_tails = false;
  EXPECT_EQ(dispatch_run(plain).p99_i, 0.0);

  // The histograms are passive observers: one SimOptions.seed with and
  // without them runs the same sample path, so the means agree exactly.
  SimOptions options;
  options.num_jobs = 4000;
  options.warmup_jobs = 400;
  options.seed = 7;
  const auto policy = make_policy("IF");
  const SimResult bare = simulate(p, *policy, options);
  Histogram hist_i(0.0, 400.0, 2000);
  Histogram hist_e(0.0, 400.0, 2000);
  options.response_hist_i = &hist_i;
  options.response_hist_e = &hist_e;
  const SimResult observed = simulate(p, *policy, options);
  EXPECT_GT(hist_i.quantile(0.99), 0.0);
  EXPECT_EQ(observed.mean_response_time.mean, bare.mean_response_time.mean);
  EXPECT_EQ(observed.inelastic.response_time.mean,
            bare.inelastic.response_time.mean);
  EXPECT_EQ(observed.elastic.response_time.mean,
            bare.elastic.response_time.mean);
}

TEST(SweepRunner, ExactGroupBatchingMatchesPerPointDispatch) {
  // Five policies per chain topology: the runner solves every point as its
  // own job, so results equal per-point dispatch bitwise and a single
  // topology still spreads over the whole pool.
  const std::vector<std::vector<CaseSpec>> inputs = {
      {{4, 2.0, 1.0, 0.8, 0}, {4, 0.5, 1.0, 0.6, 0}},
      {{4, 2.0, 1.0, 0.8, 0}}};
  for (const auto& cases : inputs) {
    Scenario s;
    s.name = "batch";
    s.cases = cases;
    s.policies = {"IF", "EF", "FairShare", "Cap2", "IF+idle1"};
    s.solvers = {SolverKind::kExactCtmc};
    s.options.imax = s.options.jmax = 25;
    const auto points = s.expand();
    SweepRunner runner(2);
    SweepStats stats;
    const auto results = runner.run(points, &stats);
    EXPECT_EQ(stats.solved_points, points.size());
    EXPECT_EQ(stats.threads_used, 2);
    for (std::size_t n = 0; n < points.size(); ++n) {
      RunResult direct = dispatch_run(points[n]);
      direct.from_cache = results[n].from_cache;
      direct.solve_seconds = results[n].solve_seconds;
      EXPECT_TRUE(numerically_equal(results[n], direct))
          << points[n].cache_key();
    }
  }
}

TEST(SweepRunner, DiskCachePersistsAcrossRunners) {
  const std::string dir = testing::TempDir() + "esched_disk_cache_test";
  Scenario s = small_scenario();
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto points = s.expand();

  SweepRunner first(2);
  first.set_cache_dir(dir);
  SweepStats cold;
  const auto solved = first.run(points, &cold);
  EXPECT_EQ(cold.solved_points, points.size());
  EXPECT_EQ(cold.disk_hits, 0u);

  // A fresh runner (fresh process, conceptually) hits only the disk.
  SweepRunner second(2);
  second.set_cache_dir(dir);
  SweepStats warm;
  const auto loaded = second.run(points, &warm);
  EXPECT_EQ(warm.solved_points, 0u);
  EXPECT_EQ(warm.disk_hits, points.size());
  EXPECT_EQ(warm.cache_hits, points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(loaded[n].from_cache);
    EXPECT_TRUE(numerically_equal(solved[n], loaded[n]))
        << points[n].cache_key();
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, LargeSweepBookkeepingIsThreadCountInvariant) {
  // Enough distinct points that key building and cache probes leave the
  // calling thread, plus repeats of every provenance: keys preloaded into
  // the --cache-dir table, one key held only as a per-entry file (promoted
  // on load), and keys solved fresh.
  Scenario s;
  s.name = "bookkeeping";
  s.k_values = {4};
  s.rho_values = {0.5, 0.6, 0.7};
  s.mu_i_values.clear();
  s.mu_e_values.clear();
  for (int n = 0; n < 10; ++n) s.mu_i_values.push_back(0.5 + 0.25 * n);
  for (int n = 0; n < 20; ++n) s.mu_e_values.push_back(0.5 + 0.125 * n);
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};
  const std::vector<RunPoint> base = s.expand();
  ASSERT_EQ(base.size(), 1200u);
  enum Role { kTable, kFile, kFresh };
  const auto role = [](std::size_t id) {
    if (id < 500) return kTable;
    return id == 500 ? kFile : kFresh;
  };
  const std::vector<RunPoint> table_points(base.begin(), base.begin() + 500);
  // Repeats interleaved through the sweep, some ahead of their key's
  // first solve's completion, some of keys already seen.
  std::vector<RunPoint> points;
  std::vector<std::size_t> ids;
  for (std::size_t id = 0; id < base.size(); ++id) {
    points.push_back(base[id]);
    ids.push_back(id);
    if (id % 3 == 0) {
      const std::size_t repeat = (id * 7) % base.size();
      points.push_back(base[repeat]);
      ids.push_back(repeat);
    }
  }

  // The documented semantics, serially: a key's first index is a disk hit
  // or a fresh solve; every repeat is a duplicate, whatever its key's
  // source.
  std::vector<bool> first(points.size(), false);
  std::uint64_t want_disk = 0, want_dup = 0, want_solved = 0;
  {
    std::vector<bool> seen(base.size(), false);
    for (std::size_t n = 0; n < points.size(); ++n) {
      first[n] = !seen[ids[n]];
      seen[ids[n]] = true;
      if (!first[n]) ++want_dup;
      else if (role(ids[n]) != kFresh) ++want_disk;
      else ++want_solved;
    }
  }
  ASSERT_GT(want_dup, 0u);
  ASSERT_GT(want_solved, 500u);

  struct Row {
    std::size_t index;
    RunResult result;
  };
  struct Outcome {
    std::vector<RunResult> results;
    SweepStats stats;
    std::vector<Row> rows;  // delivery order
    std::map<std::string, std::uint64_t> counters;
  };
  const char* kCounters[] = {"sweep.disk.hits", "sweep.dup.points",
                             "sweep.points.solved"};
  const auto sweep = [&](int threads) {
    const std::string dir = testing::TempDir() + "esched_bookkeeping_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);
    {
      SweepRunner preload(1);
      preload.set_cache_dir(dir);
      preload.run(table_points);
    }
    DiskResultCache(dir).store(base[500].cache_key(), dispatch_run(base[500]));
    SweepRunner runner(threads);
    runner.set_cache_dir(dir);

    Outcome out;
    std::map<std::string, std::uint64_t> before;
    for (const char* name : kCounters) {
      before[name] = global_metrics().counter(name).total();
    }
    out.results = runner.run(points, &out.stats,
                             [&](std::size_t n, const RunPoint&,
                                 const RunResult& result) {
                               out.rows.push_back({n, result});
                             });
    for (const char* name : kCounters) {
      out.counters[name] = global_metrics().counter(name).total() - before[name];
    }
    // The per-entry file was promoted into the table on load.
    EXPECT_FALSE(std::filesystem::exists(
        DiskResultCache(dir).entry_path(base[500].cache_key())));
    std::filesystem::remove_all(dir);
    return out;
  };
  const Outcome serial = sweep(1);
  const Outcome parallel = sweep(4);

  for (const Outcome* out : {&serial, &parallel}) {
    EXPECT_EQ(out->counters.at("sweep.disk.hits"), want_disk);
    EXPECT_EQ(out->counters.at("sweep.dup.points"), want_dup);
    EXPECT_EQ(out->counters.at("sweep.points.solved"), want_solved);
    EXPECT_EQ(out->stats.total_points, points.size());
    EXPECT_EQ(out->stats.solved_points, want_solved);
    EXPECT_EQ(out->stats.cache_hits, points.size() - want_solved);
    EXPECT_EQ(out->stats.disk_hits, want_disk);

    // Provenance: only a solved key's first index is fresh.
    double fresh_seconds = 0.0;
    for (std::size_t n = 0; n < points.size(); ++n) {
      const bool fresh = first[n] && role(ids[n]) == kFresh;
      EXPECT_EQ(out->results[n].from_cache, !fresh) << "index " << n;
      if (fresh) {
        EXPECT_GT(out->results[n].solve_seconds, 0.0) << "index " << n;
        fresh_seconds += out->results[n].solve_seconds;
      } else {
        EXPECT_EQ(out->results[n].solve_seconds, 0.0) << "index " << n;
      }
    }
    EXPECT_EQ(out->stats.solve_seconds_total, fresh_seconds);

    // on_row: once per index, matching the returned provenance, and every
    // disk hit (and its repeats) before the first fresh row.
    ASSERT_EQ(out->rows.size(), points.size());
    std::vector<int> deliveries(points.size(), 0);
    std::size_t first_fresh = out->rows.size();
    std::size_t last_hit = 0;
    for (std::size_t pos = 0; pos < out->rows.size(); ++pos) {
      const Row& row = out->rows[pos];
      ++deliveries[row.index];
      EXPECT_EQ(row.result.from_cache, out->results[row.index].from_cache);
      EXPECT_EQ(row.result.solve_seconds,
                out->results[row.index].solve_seconds);
      EXPECT_TRUE(numerically_equal(row.result, out->results[row.index]));
      if (!row.result.from_cache) first_fresh = std::min(first_fresh, pos);
      if (role(ids[row.index]) != kFresh) last_hit = pos;
    }
    for (std::size_t n = 0; n < points.size(); ++n) {
      EXPECT_EQ(deliveries[n], 1) << "index " << n;
    }
    EXPECT_LT(last_hit, first_fresh);
  }

  EXPECT_EQ(serial.stats.threads_used, 1);
  EXPECT_EQ(parallel.stats.threads_used, 4);
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(numerically_equal(serial.results[n], parallel.results[n]))
        << points[n].cache_key();
  }
}

TEST(DiskCache, RoundTripsResultsExactlyAndRejectsCorruption) {
  RunResult result;
  result.mean_response_time = 1.0 / 3.0;
  result.mean_jobs_i = 0.1234567890123456789;
  result.ci_halfwidth = 1e-300;
  result.p99_e = 42.5;
  result.num_states = 1681;
  result.dom_checkpoints = 77;
  result.solver_iterations = 12;
  result.solve_residual = 3.0e-13;
  const std::string text = serialize_run_result(result);
  const auto parsed = deserialize_run_result(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(numerically_equal(result, *parsed));
  EXPECT_FALSE(deserialize_run_result("garbage").has_value());
  EXPECT_FALSE(deserialize_run_result(text.substr(0, 40)).has_value());

  const std::string dir = testing::TempDir() + "esched_disk_cache_unit";
  const DiskResultCache cache(dir);
  EXPECT_FALSE(cache.load("missing").has_value());
  cache.store("k=1;policy=IF", result);
  const auto loaded = cache.load("k=1;policy=IF");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(numerically_equal(result, *loaded));
  // A different key mapping to a present file must verify the stored key.
  EXPECT_FALSE(cache.load("k=1;policy=EF").has_value());
  std::filesystem::remove_all(dir);
}

TEST(Report, CsvAndJsonRoundTrip) {
  Scenario s = small_scenario();
  s.k_values = {2};
  s.rho_values = {0.5};
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto points = s.expand();
  SweepRunner runner(1);
  SweepStats stats;
  const auto results = runner.run(points, &stats);

  const std::string csv_path = testing::TempDir() + "engine_report.csv";
  write_csv_report(csv_path, points, results);
  std::ifstream csv(csv_path);
  std::string line;
  std::getline(csv, line);
  EXPECT_NE(line.find("policy"), std::string::npos);
  std::size_t rows = 0;
  std::size_t summary_lines = 0;
  while (std::getline(csv, line)) {
    if (line.rfind("# ", 0) == 0) ++summary_lines;
    else ++rows;
  }
  EXPECT_EQ(rows, points.size());
  // Every CSV report ends in the deterministic summary trailer.
  EXPECT_EQ(summary_lines, 2u);
  std::remove(csv_path.c_str());

  const std::string json_path = testing::TempDir() + "engine_report.json";
  write_json_report(json_path, points, results, &stats);
  std::stringstream json;
  json << std::ifstream(json_path).rdbuf();
  EXPECT_NE(json.str().find("\"points\""), std::string::npos);
  EXPECT_NE(json.str().find("\"stats\""), std::string::npos);
  std::remove(json_path.c_str());

  std::ostringstream summary;
  print_sweep_summary(summary, points, results, stats, 2);
  EXPECT_NE(summary.str().find("more rows"), std::string::npos);
  EXPECT_NE(summary.str().find("cache hits"), std::string::npos);
}

}  // namespace
}  // namespace esched
