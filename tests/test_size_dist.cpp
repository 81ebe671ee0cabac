// Tests for first-class size distributions: SizeDistSpec parsing and
// canonical forms, the mean-1/mu scaling convention, fitter round trips,
// the exp-spec bitwise-identity guarantee (cache keys, seeds, results, CSV
// bytes), the phase-type exact chain vs the base chain and vs simulation,
// backend rejections naming the offending option, and the RunOptions
// range validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "core/exact_ctmc.hpp"
#include "core/policies.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "phase/size_dist.hpp"

namespace esched {
namespace {

#define EXPECT_THROWS_NAMING(expr, needle)                                \
  do {                                                                    \
    try {                                                                 \
      (void)(expr);                                                       \
      ADD_FAILURE() << "expected esched::Error naming '" << (needle)      \
                    << "'";                                               \
    } catch (const Error& e) {                                            \
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)    \
          << "message was: " << e.what();                                 \
    }                                                                     \
  } while (0)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SizeDistSpec, CanonicalFormsRoundTrip) {
  for (const char* text :
       {"exp", "erlang:3", "hyperexp:0.5,2,0.5", "coxian2:1,2,0.5",
        "ph-fit:1,3,20", "det", "lognormal:4", "pareto:3.5"}) {
    const SizeDistSpec spec = SizeDistSpec::parse(text);
    EXPECT_EQ(spec.canonical(), text);
    EXPECT_EQ(SizeDistSpec::parse(spec.canonical()), spec) << text;
  }
  // Default construction is the exponential.
  EXPECT_TRUE(SizeDistSpec().is_exponential());
  EXPECT_EQ(SizeDistSpec().canonical(), "exp");
  // Erlang-1 IS the exponential and normalizes to it (same cache keys).
  EXPECT_EQ(SizeDistSpec::parse("erlang:1"), SizeDistSpec());
  // Parameters re-emit in shortest round-trip form.
  EXPECT_EQ(SizeDistSpec::parse("erlang:03").canonical(), "erlang:3");
  EXPECT_EQ(SizeDistSpec::parse("lognormal:4.0").canonical(), "lognormal:4");
}

TEST(SizeDistSpec, MalformedSpecsAreNamed) {
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("weibull:2"), "weibull");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("weibull:2"), "erlang:n");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("erlang"), "expected 1");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("erlang:0"), "[1, 1000]");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("erlang:2.5"), "integer");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("erlang:x"), "not a finite");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("hyperexp:1.2,1,2"), "(0,1)");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("hyperexp:0.5,0,2"), "positive");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("hyperexp:0.5,1"), "expected 3");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("coxian2:1,1,1.5"), "[0,1]");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("lognormal:-1"), "> 0");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("pareto:2.5"), "> 3");
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("det:2"), "expected 0");
  // An invalid moment sequence fails at parse time, not at solve time.
  EXPECT_THROWS_NAMING(SizeDistSpec::parse("ph-fit:1,0.5,1"), "ph-fit");
}

TEST(SizeDistSpec, CompileScalesToClassMean) {
  for (const char* text :
       {"erlang:3", "hyperexp:0.4,2,0.5", "coxian2:1,2,0.5",
        "ph-fit:2,10,90", "det", "lognormal:4", "pareto:3.5"}) {
    for (const double mu : {0.5, 1.0, 2.0}) {
      const PhaseType dist = SizeDistSpec::parse(text).compile(mu);
      EXPECT_NEAR(dist.mean(), 1.0 / mu, 1e-9 / mu) << text << " mu=" << mu;
    }
    // The SCV is scale-free: compile(mu) preserves the shape.
    const SizeDistSpec spec = SizeDistSpec::parse(text);
    EXPECT_NEAR(spec.compile(2.0).scv(), spec.scv(), 1e-9) << text;
  }
  EXPECT_NEAR(SizeDistSpec::parse("erlang:4").scv(), 0.25, 1e-12);
  EXPECT_NEAR(SizeDistSpec::parse("det").scv(), 1.0 / 64.0, 1e-9);
  EXPECT_NEAR(SizeDistSpec::parse("lognormal:4").scv(), 4.0, 1e-9);
}

TEST(SizeDistSpec, PhFitRoundTripsMoments) {
  // ph-fit moments are matched exactly when Coxian-2-feasible; compile
  // rescales them to the class mean, so compare against scaled inputs.
  const Moments3 target{2.0, 10.0, 90.0};
  const double mu = 0.5;  // mean 2 == m1: no rescaling
  const Moments3 got = SizeDistSpec::parse("ph-fit:2,10,90")
                           .compile(mu)
                           .moments3();
  EXPECT_NEAR(got.m1, target.m1, 1e-9);
  EXPECT_NEAR(got.m2, target.m2, 1e-6);
  EXPECT_NEAR(got.m3, target.m3, 1e-4);
  // Scaling: moments of order n scale by (m1 * mu)^-n ... i.e. with mean
  // forced to 1/mu' the normalized moments are preserved.
  const Moments3 scaled = SizeDistSpec::parse("ph-fit:2,10,90")
                              .compile(2.0)
                              .moments3();
  EXPECT_NEAR(scaled.m1, 0.5, 1e-12);
  EXPECT_NEAR(scaled.m2 / (scaled.m1 * scaled.m1),
              target.m2 / (target.m1 * target.m1), 1e-6);
  EXPECT_NEAR(scaled.m3 / (scaled.m1 * scaled.m1 * scaled.m1),
              target.m3 / (target.m1 * target.m1 * target.m1), 1e-4);
  // The SCV == 1 lognormal boundary point falls back to the exponential
  // (the only SCV == 1 member of the Coxian-2 family) instead of throwing.
  const PhaseType ln1 = SizeDistSpec::parse("lognormal:1").compile(1.0);
  EXPECT_NEAR(ln1.mean(), 1.0, 1e-12);
  EXPECT_NEAR(ln1.scv(), 1.0, 1e-9);
}

RunPoint sim_point(const SizeDistSpec& dist_i, const SizeDistSpec& dist_e) {
  RunPoint point;
  point.params = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  point.policy = "IF";
  point.solver = SolverKind::kSimulation;
  point.options.sim_jobs = 20000;
  point.options.sim_warmup = 2000;
  point.options.size_dist_i = dist_i;
  point.options.size_dist_e = dist_e;
  return point;
}

TEST(SizeDist, ExplicitExpIsBitwiseIdenticalToImplicitExponential) {
  const RunPoint implicit = sim_point(SizeDistSpec(), SizeDistSpec());
  const RunPoint explicit_exp =
      sim_point(SizeDistSpec::parse("exp"), SizeDistSpec::parse("erlang:1"));
  // Cache key and derived seed are byte-identical, so existing disk-cache
  // entries stay valid and the RNG streams coincide.
  EXPECT_EQ(implicit.cache_key(), explicit_exp.cache_key());
  EXPECT_EQ(implicit.seed(), explicit_exp.seed());
  const RunResult a = dispatch_run(implicit);
  const RunResult b = dispatch_run(explicit_exp);
  EXPECT_TRUE(numerically_equal(a, b));

  // Same for the exact backend.
  RunPoint exact_a = implicit;
  exact_a.solver = SolverKind::kExactCtmc;
  exact_a.options.imax = exact_a.options.jmax = 30;
  RunPoint exact_b = explicit_exp;
  exact_b.solver = SolverKind::kExactCtmc;
  exact_b.options.imax = exact_b.options.jmax = 30;
  EXPECT_EQ(exact_a.cache_key(), exact_b.cache_key());
  EXPECT_TRUE(numerically_equal(dispatch_run(exact_a), dispatch_run(exact_b)));

  // And the CSV bytes: an exp-only report keeps the pre-refactor schema.
  const std::string path_a = testing::TempDir() + "sdist_exp_a.csv";
  const std::string path_b = testing::TempDir() + "sdist_exp_b.csv";
  write_csv_report(path_a, {implicit}, {a});
  write_csv_report(path_b, {explicit_exp}, {b});
  EXPECT_EQ(slurp(path_a), slurp(path_b));
  EXPECT_EQ(slurp(path_a).find("size_dist"), std::string::npos);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SizeDist, NonExponentialSpecsExtendCacheKeyAndCsvSchema) {
  const RunPoint point = sim_point(SizeDistSpec::parse("erlang:3"),
                                   SizeDistSpec::parse("lognormal:4"));
  const std::string key = point.cache_key();
  EXPECT_NE(key.find("sdi=erlang:3"), std::string::npos) << key;
  EXPECT_NE(key.find("sde=lognormal:4"), std::string::npos) << key;
  EXPECT_NE(key, sim_point(SizeDistSpec(), SizeDistSpec()).cache_key());
  EXPECT_TRUE(report_has_size_dists({point}));

  const std::string path = testing::TempDir() + "sdist_ext.csv";
  write_csv_report(path, {point}, {RunResult{}});
  const std::string text = slurp(path);
  EXPECT_NE(text.find("size_dist_i,size_dist_e"), std::string::npos);
  EXPECT_NE(text.find("erlang:3,lognormal:4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SizeDist, NonExpSpecsNeverCollideWithExpCacheKeysOnAnySolver) {
  // The rejecting solvers must also key on the size dists: a qbd point
  // with a non-exp size colliding with its exponential twin would make the
  // sweep runner's dedupe or disk cache hand back the exponential result on
  // a row labelled otherwise, instead of the rejection error.
  for (const SolverKind solver :
       {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
        SolverKind::kSimulation, SolverKind::kMmkBaseline,
        SolverKind::kTraceDominance}) {
    RunPoint exp_point = sim_point(SizeDistSpec(), SizeDistSpec());
    exp_point.solver = solver;
    RunPoint erl_point = sim_point(SizeDistSpec::parse("erlang:3"),
                                   SizeDistSpec());
    erl_point.solver = solver;
    EXPECT_NE(exp_point.cache_key(), erl_point.cache_key())
        << solver_name(solver);
  }
  // End to end: a mixed exp/non-exp axis over qbd fails with the named
  // rejection rather than silently reusing the exponential solve.
  Scenario scenario;
  scenario.name = "qbd-mixed";
  scenario.size_dists = {SizeDistSpec(), SizeDistSpec::parse("erlang:3")};
  scenario.policies = {"IF"};
  scenario.solvers = {SolverKind::kQbdAnalysis};
  SweepRunner runner(1);
  EXPECT_THROWS_NAMING(runner.run(scenario.expand()), "size_dist_i");
}

TEST(SizeDist, RejectingBackendsNameTheOffendingOption) {
  RunPoint point = sim_point(SizeDistSpec::parse("erlang:3"), SizeDistSpec());
  point.solver = SolverKind::kQbdAnalysis;
  EXPECT_THROWS_NAMING(dispatch_run(point), "size_dist_i");
  EXPECT_THROWS_NAMING(dispatch_run(point), "'qbd'");
  point.solver = SolverKind::kMmkBaseline;
  EXPECT_THROWS_NAMING(dispatch_run(point), "size_dist_i");
  point.solver = SolverKind::kTraceDominance;
  EXPECT_THROWS_NAMING(dispatch_run(point), "size_dist_i");
  // exact rejects phase-type *elastic* sizes only.
  RunPoint elastic = sim_point(SizeDistSpec(), SizeDistSpec::parse("erlang:3"));
  elastic.solver = SolverKind::kExactCtmc;
  EXPECT_THROWS_NAMING(dispatch_run(elastic), "size_dist_e");
}

TEST(SizeDist, PhExactChainMatchesBaseChainOnExponentialShape) {
  // coxian2:1,1,0 is a two-phase representation of the exponential (the
  // second phase is unreachable), so the augmented chain must agree with
  // the base chain to solver tolerance — same model, different state
  // encoding.
  const SystemParams params = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  ExactCtmcOptions options;
  options.imax = options.jmax = 30;
  const PhaseType two_phase_exp =
      SizeDistSpec::parse("coxian2:1,1,0").compile(params.mu_i);
  for (const auto& policy :
       {PolicyPtr(make_inelastic_first()), PolicyPtr(make_elastic_first())}) {
    const ExactCtmcResult base = solve_exact_ctmc(params, *policy, options);
    const ExactCtmcResult ph =
        solve_exact_ctmc_ph(params, *policy, two_phase_exp, options);
    EXPECT_NEAR(ph.mean_response_time, base.mean_response_time,
                1e-7 * base.mean_response_time)
        << policy->name();
    EXPECT_NEAR(ph.mean_jobs_i, base.mean_jobs_i, 1e-6) << policy->name();
    EXPECT_NEAR(ph.mean_jobs_e, base.mean_jobs_e, 1e-6) << policy->name();
  }
}

TEST(SizeDist, PhExactChainMatchesSimulationWithinCi) {
  // The acceptance check: erlang:3 inelastic sizes on both backends give
  // mutually consistent E[T] (exact within the simulation's 95% CI plus
  // slack for the truncation).
  RunOptions options;
  options.size_dist_i = SizeDistSpec::parse("erlang:3");
  options.imax = options.jmax = 40;
  options.sim_jobs = 400000;
  options.sim_warmup = 40000;
  for (const char* policy : {"IF", "EF"}) {
    RunPoint exact;
    exact.params = SystemParams::from_load(4, 1.0, 1.0, 0.6);
    exact.policy = policy;
    exact.solver = SolverKind::kExactCtmc;
    exact.options = options;
    RunPoint sim = exact;
    sim.solver = SolverKind::kSimulation;
    const RunResult exact_result = dispatch_run(exact);
    const RunResult sim_result = dispatch_run(sim);
    EXPECT_GT(exact_result.mean_response_time, 0.0);
    EXPECT_LT(exact_result.boundary_mass, 1e-6);
    EXPECT_NEAR(exact_result.mean_response_time,
                sim_result.mean_response_time,
                3.0 * sim_result.ci_halfwidth + 1e-3)
        << policy;
  }
}

TEST(SizeDist, PhExactChainRejectsUnsupportedShapes) {
  const SystemParams params = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  ExactCtmcOptions options;
  options.imax = options.jmax = 20;
  const PhaseType erl3 = SizeDistSpec::parse("erlang:3").compile(params.mu_i);
  // FairShare hands inelastic jobs fractional servers.
  EXPECT_THROWS_NAMING(solve_exact_ctmc_ph(params, *make_fair_share(), erl3,
                                           options),
                       "fractional");
  // Cap2 preempts part of the in-service inelastic set when elastic jobs
  // arrive (allocation drops 4 -> 2): not all-or-nothing.
  EXPECT_THROWS_NAMING(solve_exact_ctmc_ph(params, *make_inelastic_cap(2),
                                           erl3, options),
                       "all-or-nothing");
  // det compiles to 64 phases, past the exact backend's limit.
  const PhaseType det = SizeDistSpec::parse("det").compile(params.mu_i);
  EXPECT_THROWS_NAMING(solve_exact_ctmc_ph(params, *make_inelastic_first(),
                                           det, options),
                       "at most 16");
}

TEST(SizeDist, ScenarioAxisSetsBothClassesAndMultipliesThePointCount) {
  Scenario scenario;
  scenario.name = "axis";
  scenario.size_dists = {SizeDistSpec::parse("exp"),
                         SizeDistSpec::parse("erlang:2")};
  scenario.policies = {"IF"};
  scenario.solvers = {SolverKind::kSimulation};
  EXPECT_EQ(scenario.num_points(), 2u);
  const auto points = scenario.expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(points[0].options.size_dist_i.is_exponential());
  EXPECT_TRUE(points[0].options.size_dist_e.is_exponential());
  EXPECT_EQ(points[1].options.size_dist_i.canonical(), "erlang:2");
  EXPECT_EQ(points[1].options.size_dist_e.canonical(), "erlang:2");
  // The axis does not disturb per-class options when absent.
  Scenario no_axis;
  no_axis.options.size_dist_i = SizeDistSpec::parse("erlang:3");
  no_axis.solvers = {SolverKind::kSimulation};
  const auto plain = no_axis.expand();
  EXPECT_EQ(plain.front().options.size_dist_i.canonical(), "erlang:3");
}

TEST(SizeDist, SpecLoaderParsesAxisAndOptionsWithNamedErrors) {
  const Scenario s = parse_scenario_text(
      R"({"name": "sd", "axes": {
            "size_dist": ["exp", "erlang:3", "lognormal:4"],
            "policy": ["IF"], "solver": ["sim"]},
          "options": {"size_dist_e": "hyperexp:0.5,2,0.5"}})",
      "t");
  ASSERT_EQ(s.size_dists.size(), 3u);
  EXPECT_EQ(s.size_dists[1].canonical(), "erlang:3");
  EXPECT_EQ(s.options.size_dist_e.canonical(), "hyperexp:0.5,2,0.5");
  EXPECT_EQ(s.num_points(), 3u);

  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"axes": {"size_dist": ["nope"], "solver": ["sim"]}})", "t"),
      "axes.size_dist[0]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"options": {"size_dist_i": "erlang:0"}})", "t"),
      "options.size_dist_i");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"options": {"size_dist": "exp"}})", "t"),
      "size_dist");

  // Round trip: canonical forms survive serialize -> parse.
  const Scenario again =
      parse_scenario_text(scenario_to_json(s).dump(), "roundtrip");
  ASSERT_EQ(again.size_dists.size(), 3u);
  EXPECT_EQ(again.size_dists[2], s.size_dists[2]);
  EXPECT_EQ(again.options.size_dist_e, s.options.size_dist_e);
}

TEST(RunOptionsValidation, DegenerateNumericOptionsAreRejected) {
  RunOptions options;
  options.validate();  // defaults are fine
  options.sim_jobs = 100;
  options.sim_warmup = 200;
  EXPECT_THROWS_NAMING(options.validate(), "sim_warmup");
  // Batch means need two observations in each of 20 batches.
  options.sim_jobs = 30;
  options.sim_warmup = 0;
  EXPECT_THROWS_NAMING(options.validate(), "options.sim_jobs must be >= 40");
  options.sim_jobs = 40;
  options.validate();
  options = RunOptions{};
  options.truncation_epsilon = 1.5;
  EXPECT_THROWS_NAMING(options.validate(), "truncation_epsilon");

  // Scenario::validate (and therefore expand / the spec loader) calls it.
  Scenario scenario;
  scenario.name = "degenerate";
  scenario.options.sim_jobs = 10;
  scenario.options.sim_warmup = 50;
  EXPECT_THROWS_NAMING(scenario.expand(), "sim_warmup");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"options": {"sim_jobs": 10, "sim_warmup": 50}})", "t"),
      "sim_warmup");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"solver": ["sim"]},
                              "options": {"sim_jobs": 30, "sim_warmup": 0}})",
                          "t"),
      "options.sim_jobs must be >= 40");
}

TEST(SizeDist, ShardsOfMixedSweepShareOneHeaderViaExplicitSchemaFlag) {
  // A mixed exp/non-exp size_dist sweep sliced into shards: the all-exp
  // slice must still carry the size_dist columns (schema derives from the
  // FULL sweep, not the slice), or `esched merge` refuses the shards.
  Scenario scenario;
  scenario.name = "mixed";
  scenario.size_dists = {SizeDistSpec::parse("exp"),
                         SizeDistSpec::parse("erlang:3")};
  scenario.policies = {"IF"};
  scenario.solvers = {SolverKind::kSimulation};
  const auto full = scenario.expand();
  ASSERT_EQ(full.size(), 2u);
  const bool schema = report_has_size_dists(full);
  EXPECT_TRUE(schema);
  const std::string shard0 = testing::TempDir() + "sdist_shard0.csv";
  const std::string shard1 = testing::TempDir() + "sdist_shard1.csv";
  write_csv_report(shard0, {full[0]}, {RunResult{}}, schema);
  write_csv_report(shard1, {full[1]}, {RunResult{}}, schema);
  const std::string header0 = slurp(shard0).substr(0, slurp(shard0).find('\n'));
  const std::string header1 = slurp(shard1).substr(0, slurp(shard1).find('\n'));
  EXPECT_EQ(header0, header1);
  EXPECT_NE(header0.find("size_dist_i"), std::string::npos);
  // The exp slice alone would have derived the narrow schema — the bug
  // the explicit flag exists to prevent.
  EXPECT_FALSE(report_has_size_dists({full[0]}));
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
}

TEST(SizeDist, ExpOnlyAxisOverridesNonExpOptionsAndKeepsNarrowSchema) {
  // axes.size_dist overwrites BOTH classes per point, so an all-exp axis
  // over non-exp options expands to exponential points — and the schema,
  // derived from the expansion, stays the pre-refactor one. (The CLI's
  // streaming flag derives from the same expansion, so batch and stream
  // agree.)
  const Scenario s = parse_scenario_text(
      R"({"name": "override", "axes": {
            "size_dist": ["exp"], "policy": ["IF"], "solver": ["sim"]},
          "options": {"size_dist_i": "erlang:3"}})",
      "t");
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].options.size_dist_i.is_exponential());
  EXPECT_FALSE(report_has_size_dists(points));
}

TEST(SizeDist, StreamedReportWithSizeDistsMatchesBatchBytes) {
  const RunPoint point = sim_point(SizeDistSpec::parse("erlang:2"),
                                   SizeDistSpec());
  const RunResult result = dispatch_run(point);
  const std::string batch_path = testing::TempDir() + "sdist_batch.csv";
  const std::string stream_path = testing::TempDir() + "sdist_stream.csv";
  write_csv_report(batch_path, {point}, {result});
  std::remove(stream_path.c_str());
  {
    StreamingCsvReport report(stream_path, /*with_size_dist=*/true);
    report.add_row(0, point, result);
    report.finish(1);
  }
  EXPECT_EQ(slurp(batch_path), slurp(stream_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

}  // namespace
}  // namespace esched
