#include "workloads.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "common/numeric.hpp"
#include "rng/xoshiro.hpp"

namespace perfbench {

namespace {

/// Shortest decimal text that parses back to the same double, so a spec
/// file is an exact record of the generated values.
std::string num(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) throw std::runtime_error("number formatting failed");
  return std::string(buf, end);
}

/// Seeded perturbation of parameter values. Every rate of a workload is
/// multiplied by one common time scale in [0.98, 1.02): that changes every
/// E[T] but leaves each chain's iteration counts, and so the cost of a
/// sweep, as they were. On top, each value moves independently by at most
/// kJitter, small enough that loads (which set SOR and QBD iteration counts)
/// stay put. Draws come from the repository's own generator, seeded from
/// the workload seed and name.
class Jitter {
 public:
  static constexpr double kJitter = 5e-4;

  Jitter(std::uint64_t seed, const std::string& name)
      : rng_(seed ^ esched::fnv1a64(name)) {
    time_scale_ = 1.0 + 0.02 * unit();
  }

  double unit() {
    return static_cast<double>(rng_() >> 11) * 0x1.0p-52 - 1.0;
  }
  /// A load: value * (1 + kJitter * u), u uniform in [-1, 1).
  double load(double value) { return value * (1.0 + kJitter * unit()); }
  /// A size rate: the common time scale, then the independent jitter.
  double rate(double value) { return load(value * time_scale_); }
  std::uint64_t bits() { return rng_(); }

 private:
  esched::Xoshiro256 rng_;
  double time_scale_ = 1.0;
};

struct Case {
  double mu_i;
  double mu_e;
  double rho;
};

/// Perturbs one spot setting. mu_I >= mu_E (the condition of Theorem 5)
/// survives the perturbation, so the optimality oracle applies to the same
/// settings under every seed.
Case perturb(const Case& base, Jitter& jitter) {
  double mu_i = jitter.rate(base.mu_i);
  double mu_e = jitter.rate(base.mu_e);
  if (base.mu_i >= base.mu_e && mu_i < mu_e) std::swap(mu_i, mu_e);
  return {mu_i, mu_e, jitter.load(base.rho)};
}

std::string cases_json(const std::vector<Case>& cases) {
  std::string out = "[";
  for (std::size_t n = 0; n < cases.size(); ++n) {
    if (n > 0) out += ",";
    out += "\n    {\"k\": 4, \"mu_i\": " + num(cases[n].mu_i) +
           ", \"mu_e\": " + num(cases[n].mu_e) +
           ", \"rho\": " + num(cases[n].rho) + "}";
  }
  return out + "\n  ]";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t n = 0; n < values.size(); ++n) {
    if (n > 0) out += ", ";
    out += num(values[n]);
  }
  return out + "]";
}

const char* const kFamily =
    R"(["IF", "EF", "FairShare", "Cap2", "IF+idle1"])";

// exact-family: the optimality-family policy family solved exactly. The
// 80-level spot chains (6,561 states) route to the block solver; the two
// 197-level chains (39,204 states, the size optimality-family solves at
// rho = 0.9) route IF, FairShare, Cap2 and IF+idle1 to SOR and EF to block.
// Loads of 0.5 keep each SOR solve near a second, so one cold sweep fits
// several times into a run.
Workload exact_family(std::uint64_t seed) {
  Jitter jitter(seed, "exact-family");
  const std::vector<Case> spots_base = {
      {1, 1, 0.5}, {1, 1, 0.8}, {2, 1, 0.5}, {3.25, 1, 0.7}, {0.25, 1, 0.5},
      {0.9, 1, 0.7}};
  std::vector<Case> spots;
  for (const Case& c : spots_base) spots.push_back(perturb(c, jitter));
  // The deep chains sit at optimality-family's two Theorem-5 settings at
  // rho = 0.5, i.e. spots[0] and spots[2].
  const std::vector<Case> deep = {spots[0], spots[2]};
  Workload w{"exact-family", {}};
  w.specs.push_back(
      {"family-spots.json",
       "{\n  \"name\": \"family-spots\",\n  \"cases\": " + cases_json(spots) +
           ",\n  \"axes\": {\"truncation\": [80], \"policy\": " + kFamily +
           ", \"solver\": [\"exact\"]}\n}\n"});
  w.specs.push_back(
      {"family-deep.json",
       "{\n  \"name\": \"family-deep\",\n  \"cases\": " + cases_json(deep) +
           ",\n  \"axes\": {\"truncation\": [197], \"policy\": " + kFamily +
           ", \"solver\": [\"exact\"]}\n}\n"});
  return w;
}

// exact-deep: IF over a truncation ladder at two loads, exact and QBD side
// by side (the shape of ablation-truncation), ending in one 100,489-state
// chain at rho = 0.7 — a load where SOR beats the block solver.
Workload exact_deep(std::uint64_t seed) {
  Jitter jitter(seed, "exact-deep");
  const Case low = perturb({1, 1, 0.7}, jitter);
  const Case high = perturb({1, 1, 0.9}, jitter);
  Workload w{"exact-deep", {}};
  w.specs.push_back(
      {"ladder.json",
       "{\n  \"name\": \"ladder\",\n  \"cases\": " + cases_json({low, high}) +
           ",\n  \"axes\": {\"truncation\": [10, 20, 40, 80, 160], "
           "\"policy\": [\"IF\"], \"solver\": [\"exact\", \"qbd\"]}\n}\n"});
  w.specs.push_back(
      {"deep.json",
       "{\n  \"name\": \"deep\",\n  \"cases\": " + cases_json({low}) +
           ",\n  \"axes\": {\"truncation\": [316], \"policy\": [\"IF\"], "
           "\"solver\": [\"exact\", \"qbd\"]}\n}\n"});
  return w;
}

// qbd-grid: the Fig. 4 winner-map grid at step 0.05 (3 x 66 x 66 x 2 =
// 26,136 QBD points). The jitter stays far below the smallest relative grid
// step, so every axis stays sorted and duplicate-free.
Workload qbd_grid(std::uint64_t seed) {
  Jitter jitter(seed, "qbd-grid");
  std::vector<double> rho;
  for (const double r : {0.5, 0.7, 0.9}) rho.push_back(jitter.load(r));
  std::vector<double> mu_i;
  std::vector<double> mu_e;
  for (int n = 0; n < 66; ++n) mu_i.push_back(jitter.rate(0.25 + 0.05 * n));
  for (int n = 0; n < 66; ++n) mu_e.push_back(jitter.rate(0.25 + 0.05 * n));
  Workload w{"qbd-grid", {}};
  w.specs.push_back(
      {"grid.json",
       "{\n  \"name\": \"grid\",\n  \"axes\": {\n    \"k\": [4],\n"
       "    \"rho\": " + list_json(rho) + ",\n    \"mu_i\": " + list_json(mu_i) +
           ",\n    \"mu_e\": " + list_json(mu_e) +
           ",\n    \"policy\": [\"IF\", \"EF\"],\n    \"solver\": [\"qbd\"]\n"
           "  }\n}\n"});
  return w;
}

// sim-tails: IF/EF simulation with response-time histograms at three spot
// settings, exponential and lognormal (SCV 4) sizes. The simulation seeds
// derive from the workload seed through base_seed. The exponential runs are
// long enough that their 95% confidence half-width stays under 1% of E[T],
// so oracle (d) has slack and a 2% shift still leaves its band.
Workload sim_tails(std::uint64_t seed) {
  Jitter jitter(seed, "sim-tails");
  std::vector<Case> cases;
  for (const Case& c : std::vector<Case>{{3.25, 1, 0.7}, {1, 1, 0.8}, {0.5, 1, 0.7}}) {
    cases.push_back(perturb(c, jitter));
  }
  const std::string base_seed = std::to_string(jitter.bits() >> 33);
  const auto spec = [&](const std::string& name, const char* size_dist,
                        const char* jobs, const char* warmup) {
    return "{\n  \"name\": \"" + name + "\",\n  \"cases\": " +
           cases_json(cases) + ",\n  \"axes\": {\"size_dist\": [\"" +
           size_dist + "\"], \"policy\": [\"IF\", \"EF\"], \"solver\": "
           "[\"sim\"]},\n  \"options\": {\"sim_jobs\": " + jobs +
           ", \"sim_warmup\": " + warmup + ", \"sim_tails\": true, "
           "\"base_seed\": " + base_seed + "}\n}\n";
  };
  Workload w{"sim-tails", {}};
  w.specs.push_back({"tails-exp.json", spec("tails-exp", "exp", "4000000", "400000")});
  w.specs.push_back({"tails-lognormal.json",
                     spec("tails-lognormal", "lognormal:4", "1000000", "100000")});
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "exact-family") return exact_family(seed);
  if (name == "exact-deep") return exact_deep(seed);
  if (name == "qbd-grid") return qbd_grid(seed);
  if (name == "sim-tails") return sim_tails(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
