// Integration tests: the cross-validation triangle. For each parameter
// point and policy, three independent implementations must agree:
//   (1) busy-period-transformation + QBD analysis   (core/analysis),
//   (2) exact truncated 2-D CTMC solve              (core/exact_ctmc),
//   (3) stochastic simulation                       (sim/).
// Agreement of all three is the strongest correctness signal the paper
// itself offers ("Our analytical results match simulation", §5). The
// committed goldens (tests/golden/) are also held to the paper's claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/coupled.hpp"
#include "sim/ctmc_sim.hpp"
#include "sim/trace.hpp"

namespace esched {
namespace {

struct TriangleCase {
  int k;
  double mu_i;
  double mu_e;
  double rho;
};

class Triangle : public testing::TestWithParam<TriangleCase> {
 protected:
  SystemParams params() const {
    const TriangleCase& c = GetParam();
    return SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
  }

  ExactCtmcOptions truncation(const SystemParams& p) const {
    ExactCtmcOptions opt;
    const long level = suggested_truncation(p.rho(), 1e-9);
    opt.imax = level;
    opt.jmax = level;
    return opt;
  }

  SimOptions sim_options() const {
    SimOptions opt;
    opt.num_jobs = 150000;
    opt.warmup_jobs = 15000;
    opt.seed = 7777;
    return opt;
  }
};

TEST_P(Triangle, IfAnalysisExactAndSimulationAgree) {
  const SystemParams p = params();
  const double analytic = analyze_inelastic_first(p).mean_response_time;
  const double exact =
      solve_exact_ctmc(p, InelasticFirst{}, truncation(p)).mean_response_time;
  const SimResult sim = simulate(p, InelasticFirst{}, sim_options());

  EXPECT_LT(relative_error(analytic, exact), 0.012) << "analysis vs exact";
  EXPECT_LT(relative_error(sim.mean_response_time.mean, exact), 0.05)
      << "simulation vs exact";
}

TEST_P(Triangle, EfAnalysisExactAndSimulationAgree) {
  const SystemParams p = params();
  const double analytic = analyze_elastic_first(p).mean_response_time;
  const double exact =
      solve_exact_ctmc(p, ElasticFirst{}, truncation(p)).mean_response_time;
  const SimResult sim = simulate(p, ElasticFirst{}, sim_options());

  EXPECT_LT(relative_error(analytic, exact), 0.012) << "analysis vs exact";
  EXPECT_LT(relative_error(sim.mean_response_time.mean, exact), 0.05)
      << "simulation vs exact";
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, Triangle,
    testing::Values(TriangleCase{4, 1.0, 1.0, 0.5},
                    TriangleCase{4, 1.0, 1.0, 0.8},
                    TriangleCase{4, 0.25, 1.0, 0.7},
                    TriangleCase{4, 3.25, 1.0, 0.7},
                    TriangleCase{2, 1.0, 2.0, 0.6},
                    TriangleCase{8, 2.0, 1.0, 0.7}));

// End-to-end Figure 4 spot checks: the sign of E[T^EF] - E[T^IF] from the
// analysis must match the sign from the exact solver AND from simulation.
TEST(Fig4SpotCheck, WinnerAgreesAcrossMethods) {
  const struct {
    double mu_i, mu_e, rho;
  } cases[] = {{2.0, 1.0, 0.9},   // IF region
               {0.25, 1.0, 0.9},  // EF region
               {1.5, 1.0, 0.5}};  // IF region, low load
  for (const auto& c : cases) {
    const SystemParams p = SystemParams::from_load(4, c.mu_i, c.mu_e, c.rho);
    const double d_analysis = analyze_elastic_first(p).mean_response_time -
                              analyze_inelastic_first(p).mean_response_time;
    ExactCtmcOptions opt;
    opt.imax = opt.jmax = suggested_truncation(p.rho(), 1e-9);
    const double d_exact =
        solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time -
        solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time;
    EXPECT_GT(d_analysis * d_exact, 0.0)
        << "winner disagreement at mu_i=" << c.mu_i << " rho=" << c.rho;
  }
}

// The work-decomposition identity behind Lemma 4: E[N] computed from job
// counts must equal mu * E[W] per class in simulation (exponential sizes).
TEST(Lemma4, WorkAndCountsRelateThroughMeanSize) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  SimOptions opt;
  opt.num_jobs = 200000;
  opt.warmup_jobs = 20000;
  opt.seed = 424242;
  const SimResult r = simulate(p, InelasticFirst{}, opt);
  // E[W] = E[W_I] + E[W_E] = E[N_I]/mu_I + E[N_E]/mu_E.
  const double expected_work =
      r.mean_jobs_i / p.mu_i + r.mean_jobs_e / p.mu_e;
  EXPECT_LT(relative_error(r.mean_work, expected_work), 0.05);
}

// Theorem 3 corollary at steady state: IF's time-average work is at most
// any class-P policy's on the same trace.
TEST(Theorem3Corollary, TimeAverageWorkOrdering) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.85);
  const Trace trace = generate_trace(p, 2000.0, 31);
  const WorkPath if_path = run_on_trace(trace, p, InelasticFirst{});
  const WorkPath ef_path = run_on_trace(trace, p, ElasticFirst{});
  // Integrate both paths over a common window via sampling.
  double if_area = 0.0;
  double ef_area = 0.0;
  const double t_end = trace.horizon;
  const int samples = 20000;
  for (int s = 0; s < samples; ++s) {
    const double t = t_end * (s + 0.5) / samples;
    if_area += if_path.total_work_at(t);
    ef_area += ef_path.total_work_at(t);
  }
  EXPECT_LE(if_area, ef_area * (1.0 + 1e-9));
}

/// A committed golden report, tests/golden/<name>.csv, with its
/// "# summary" trailer dropped.
struct GoldenCsv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  std::size_t column(const std::string& name) const {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << "no column " << name;
    return static_cast<std::size_t>(it - header.begin());
  }
};

GoldenCsv read_golden(const std::string& name) {
  const std::string path = std::string(ESCHED_GOLDEN_DIR) + "/" + name + ".csv";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  GoldenCsv csv;
  std::size_t offset = 0;
  std::vector<std::string> cells;
  bool complete = false;
  while (csv_parse_record(text, &offset, &cells, &complete)) {
    if (cells[0].rfind('#', 0) == 0) continue;
    if (csv.header.empty()) {
      csv.header = cells;
    } else {
      csv.rows.push_back(cells);
    }
  }
  return csv;
}

// §5: the busy-period-transformation analysis is within 1% of the exact
// chain. Every analysed point of the analysis-accuracy golden has its exact
// solve, matched on (k, rho, mu_i, mu_e, cap, policy).
TEST(GoldenClaims, AnalysisWithinOnePercentOfExact) {
  const GoldenCsv csv = read_golden("analysis-accuracy");
  const std::vector<std::size_t> key_columns = {
      csv.column("k"),    csv.column("rho"),         csv.column("mu_i"),
      csv.column("mu_e"), csv.column("elastic_cap"), csv.column("policy")};
  const std::size_t solver = csv.column("solver");
  const std::size_t et = csv.column("et");
  std::map<std::vector<std::string>, double> qbd, exact;
  for (const auto& row : csv.rows) {
    std::vector<std::string> key;
    for (std::size_t c : key_columns) key.push_back(row[c]);
    if (row[solver] == "qbd") qbd[key] = std::stod(row[et]);
    if (row[solver] == "exact") exact[key] = std::stod(row[et]);
  }
  ASSERT_FALSE(qbd.empty());
  double worst = 0.0;
  for (const auto& [key, analysed] : qbd) {
    const auto it = exact.find(key);
    ASSERT_NE(it, exact.end()) << "no exact solve for " << key[5] << " k="
                               << key[0] << " rho=" << key[1];
    worst = std::max(worst, relative_error(analysed, it->second));
  }
  EXPECT_LT(worst, 0.01);
}

// Thm. 3: on one coupled arrival trace, IF's total work and inelastic work
// never exceed any other policy's. The dominance-thm3 golden records the
// largest violation of each over the replay; only roundoff may remain.
TEST(GoldenClaims, InelasticFirstDominatesWorkOnEveryTrace) {
  const GoldenCsv csv = read_golden("dominance-thm3");
  ASSERT_FALSE(csv.rows.empty());
  const std::size_t viol_w = csv.column("dom_viol_w");
  const std::size_t viol_wi = csv.column("dom_viol_wi");
  for (const auto& row : csv.rows) {
    EXPECT_LE(std::stod(row[viol_w]), 1e-9);
    EXPECT_LE(std::stod(row[viol_wi]), 1e-9);
  }
}

// Fig. 4 / Thm. 5: with exponential sizes, Inelastic-First is optimal
// whenever mu_I >= mu_E, so in every rho panel of the fig4 winner map IF
// has the lower E[T] at each cell on or above the diagonal.
TEST(GoldenClaims, Fig4InelasticFirstWinsWhereMuIAtLeastMuE) {
  const GoldenCsv csv = read_golden("fig4");
  const std::size_t rho = csv.column("rho");
  const std::size_t mu_i = csv.column("mu_i");
  const std::size_t mu_e = csv.column("mu_e");
  const std::size_t policy = csv.column("policy");
  const std::size_t et = csv.column("et");
  // (rho, mu_i, mu_e) -> policy -> E[T]
  std::map<std::vector<std::string>, std::map<std::string, double>> cells;
  for (const auto& row : csv.rows) {
    cells[{row[rho], row[mu_i], row[mu_e]}][row[policy]] = std::stod(row[et]);
  }
  std::map<std::string, std::size_t> checked;  // per rho panel
  for (const auto& [cell, by_policy] : cells) {
    if (std::stod(cell[1]) < std::stod(cell[2])) continue;
    ASSERT_EQ(by_policy.count("IF"), 1u) << "rho=" << cell[0];
    ASSERT_EQ(by_policy.count("EF"), 1u) << "rho=" << cell[0];
    EXPECT_LE(by_policy.at("IF"), by_policy.at("EF"))
        << "rho=" << cell[0] << " mu_i=" << cell[1] << " mu_e=" << cell[2];
    ++checked[cell[0]];
  }
  EXPECT_EQ(checked.size(), 3u);  // rho 0.5, 0.7, 0.9
  for (const auto& [panel, count] : checked) {
    EXPECT_GT(count, 0u) << "rho=" << panel;
  }
}

// Thm. 5: IF minimises E[T] over every policy wherever mu_I >= mu_E. In
// the optimality-family golden no member of the family (EF, FairShare,
// Cap2, IF+idle1) beats IF on such a case, beyond solver roundoff.
TEST(GoldenClaims, OptimalityFamilyTheorem5) {
  const GoldenCsv csv = read_golden("optimality-family");
  const std::vector<std::size_t> case_columns = {
      csv.column("k"), csv.column("rho"), csv.column("mu_i"),
      csv.column("mu_e")};
  const std::size_t policy = csv.column("policy");
  const std::size_t et = csv.column("et");
  std::map<std::vector<std::string>, std::map<std::string, double>> cases;
  for (const auto& row : csv.rows) {
    std::vector<std::string> key;
    for (std::size_t c : case_columns) key.push_back(row[c]);
    cases[key][row[policy]] = std::stod(row[et]);
  }
  std::size_t checked = 0;
  for (const auto& [key, by_policy] : cases) {
    if (std::stod(key[2]) < std::stod(key[3])) continue;
    ASSERT_EQ(by_policy.count("IF"), 1u) << "rho=" << key[1];
    ASSERT_GT(by_policy.size(), 1u) << "rho=" << key[1];
    double best = by_policy.at("IF");
    for (const auto& [name, value] : by_policy) best = std::min(best, value);
    EXPECT_LE(by_policy.at("IF") - best, 1e-9)
        << "k=" << key[0] << " rho=" << key[1] << " mu_i=" << key[2]
        << " mu_e=" << key[3];
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace esched
