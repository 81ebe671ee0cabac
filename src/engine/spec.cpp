#include "engine/spec.hpp"

#include <algorithm>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "engine/report.hpp"

namespace esched {

namespace {

/// Cap on values a {"from","to","step"} range may expand to — a typo'd
/// step should fail loudly, not allocate a gigapoint grid.
constexpr std::size_t kMaxRangeValues = 100000;

std::string joined(const std::vector<std::string>& names) {
  std::string all;
  for (const auto& n : names) {
    if (!all.empty()) all += ", ";
    all += n;
  }
  return all;
}

/// Rejects keys outside `allowed`, naming the offending field by its full
/// path ("options.sim_job"). `where` is the object's own path, empty for
/// the spec root.
void check_known_keys(const JsonValue& object, const std::string& where,
                      const std::vector<std::string>& allowed) {
  for (const auto& [key, value] :
       object.as_object(where.empty() ? "scenario spec" : where)) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw Error((where.empty() ? key : where + "." + key) +
                  ": unknown key (expected one of: " + joined(allowed) + ")");
    }
  }
}

/// Numeric axis: an array of numbers, or a {"from","to","step"} range
/// expanded by accumulation (from, from+step, ... while <= to + 1e-9 —
/// the same loop the paper figures' 0.25-step mu grid uses, so a range
/// spec reproduces the built-in grids bitwise).
std::vector<double> parse_numeric_axis(const JsonValue& axis,
                                       const std::string& where) {
  std::vector<double> values;
  if (axis.is_object()) {
    check_known_keys(axis, where, {"from", "to", "step"});
    const JsonValue* from = axis.find("from");
    const JsonValue* to = axis.find("to");
    const JsonValue* step = axis.find("step");
    ESCHED_CHECK(from != nullptr && to != nullptr && step != nullptr,
                 where + ": a range needs all of \"from\", \"to\", \"step\"");
    const double lo = from->as_number(where + ".from");
    const double hi = to->as_number(where + ".to");
    const double by = step->as_number(where + ".step");
    ESCHED_CHECK(by > 0.0, where + ".step: must be > 0");
    ESCHED_CHECK(hi >= lo, where + ": \"to\" must be >= \"from\"");
    for (double v = lo; v <= hi + 1e-9; v += by) {
      ESCHED_CHECK(values.size() < kMaxRangeValues,
                   where + ": range expands to more than " +
                       std::to_string(kMaxRangeValues) + " values");
      values.push_back(v);
    }
    return values;
  }
  const auto& items = axis.as_array(where);
  ESCHED_CHECK(!items.empty(), where + ": expected a non-empty array");
  values.reserve(items.size());
  for (std::size_t n = 0; n < items.size(); ++n) {
    values.push_back(
        items[n].as_number(where + "[" + std::to_string(n) + "]"));
  }
  return values;
}

std::vector<int> to_int_axis(const std::vector<double>& values,
                             const std::string& where, long lo, long hi) {
  std::vector<int> out;
  out.reserve(values.size());
  for (std::size_t n = 0; n < values.size(); ++n) {
    const std::string element = where + "[" + std::to_string(n) + "]";
    out.push_back(static_cast<int>(
        JsonValue::make_number(values[n]).as_integer(element, lo, hi)));
  }
  return out;
}

std::vector<std::string> parse_string_axis(const JsonValue& axis,
                                           const std::string& where) {
  const auto& items = axis.as_array(where);
  ESCHED_CHECK(!items.empty(), where + ": expected a non-empty array");
  std::vector<std::string> out;
  out.reserve(items.size());
  for (std::size_t n = 0; n < items.size(); ++n) {
    out.push_back(items[n].as_string(where + "[" + std::to_string(n) + "]"));
  }
  return out;
}

void parse_axes(const JsonValue& axes, Scenario& scenario) {
  const std::string where = "axes";
  check_known_keys(axes, where,
                   {"k", "rho", "mu_i", "mu_e", "elastic_cap", "truncation",
                    "fit_order", "size_dist", "policy", "solver"});
  if (const JsonValue* v = axes.find("k")) {
    scenario.k_values = to_int_axis(parse_numeric_axis(*v, "axes.k"),
                                    "axes.k", 1, 1000000);
  }
  if (const JsonValue* v = axes.find("rho")) {
    scenario.rho_values = parse_numeric_axis(*v, "axes.rho");
  }
  if (const JsonValue* v = axes.find("mu_i")) {
    scenario.mu_i_values = parse_numeric_axis(*v, "axes.mu_i");
  }
  if (const JsonValue* v = axes.find("mu_e")) {
    scenario.mu_e_values = parse_numeric_axis(*v, "axes.mu_e");
  }
  if (const JsonValue* v = axes.find("elastic_cap")) {
    scenario.elastic_caps = to_int_axis(
        parse_numeric_axis(*v, "axes.elastic_cap"), "axes.elastic_cap", 0,
        1000000);
  }
  if (const JsonValue* v = axes.find("truncation")) {
    const auto values = parse_numeric_axis(*v, "axes.truncation");
    scenario.trunc_values.clear();
    for (std::size_t n = 0; n < values.size(); ++n) {
      scenario.trunc_values.push_back(JsonValue::make_number(values[n]).as_integer(
          "axes.truncation[" + std::to_string(n) + "]", 1, 100000));
    }
  }
  if (const JsonValue* v = axes.find("fit_order")) {
    scenario.fit_orders = to_int_axis(
        parse_numeric_axis(*v, "axes.fit_order"), "axes.fit_order", 1, 3);
  }
  if (const JsonValue* v = axes.find("size_dist")) {
    const auto names = parse_string_axis(*v, "axes.size_dist");
    scenario.size_dists.clear();
    for (std::size_t n = 0; n < names.size(); ++n) {
      try {
        scenario.size_dists.push_back(SizeDistSpec::parse(names[n]));
      } catch (const Error& e) {
        throw Error("axes.size_dist[" + std::to_string(n) + "]: " + e.what());
      }
    }
  }
  if (const JsonValue* v = axes.find("policy")) {
    scenario.policies = parse_string_axis(*v, "axes.policy");
    for (std::size_t n = 0; n < scenario.policies.size(); ++n) {
      try {
        make_policy(scenario.policies[n]);
      } catch (const Error& e) {
        throw Error("axes.policy[" + std::to_string(n) + "]: " + e.what());
      }
    }
  }
  if (const JsonValue* v = axes.find("solver")) {
    const auto names = parse_string_axis(*v, "axes.solver");
    scenario.solvers.clear();
    for (std::size_t n = 0; n < names.size(); ++n) {
      try {
        scenario.solvers.push_back(parse_solver(names[n]));
      } catch (const Error& e) {
        throw Error("axes.solver[" + std::to_string(n) + "]: " + e.what());
      }
    }
  }
}

void parse_cases(const JsonValue& json_cases, Scenario& scenario) {
  const auto& items = json_cases.as_array("cases");
  ESCHED_CHECK(!items.empty(), "cases: expected a non-empty array");
  for (std::size_t n = 0; n < items.size(); ++n) {
    const std::string where = "cases[" + std::to_string(n) + "]";
    check_known_keys(items[n], where,
                     {"k", "mu_i", "mu_e", "rho", "elastic_cap"});
    CaseSpec c;
    const JsonValue* mu_i = items[n].find("mu_i");
    const JsonValue* mu_e = items[n].find("mu_e");
    const JsonValue* rho = items[n].find("rho");
    ESCHED_CHECK(mu_i != nullptr && mu_e != nullptr && rho != nullptr,
                 where + ": a case needs \"mu_i\", \"mu_e\", and \"rho\"");
    c.mu_i = mu_i->as_number(where + ".mu_i");
    c.mu_e = mu_e->as_number(where + ".mu_e");
    c.rho = rho->as_number(where + ".rho");
    if (const JsonValue* v = items[n].find("k")) {
      c.k = static_cast<int>(v->as_integer(where + ".k", 1, 1000000));
    }
    if (const JsonValue* v = items[n].find("elastic_cap")) {
      c.elastic_cap =
          static_cast<int>(v->as_integer(where + ".elastic_cap", 0, 1000000));
    }
    scenario.cases.push_back(c);
  }
}

void parse_options(const JsonValue& json_options, RunOptions& options) {
  const std::string where = "options";
  check_known_keys(json_options, where,
                   {"fit_order", "truncation_epsilon", "imax", "jmax",
                    "sim_jobs", "sim_warmup", "base_seed", "sim_tails",
                    "size_dist_i", "size_dist_e"});
  if (const JsonValue* v = json_options.find("fit_order")) {
    options.fit_order = static_cast<BusyFitOrder>(
        v->as_integer("options.fit_order", 1, 3));
  }
  if (const JsonValue* v = json_options.find("truncation_epsilon")) {
    options.truncation_epsilon = v->as_number("options.truncation_epsilon");
    ESCHED_CHECK(options.truncation_epsilon > 0.0 &&
                     options.truncation_epsilon < 1.0,
                 "options.truncation_epsilon: must be in (0,1)");
  }
  if (const JsonValue* v = json_options.find("imax")) {
    options.imax = v->as_integer("options.imax", 0, 100000);
  }
  if (const JsonValue* v = json_options.find("jmax")) {
    options.jmax = v->as_integer("options.jmax", 0, 100000);
  }
  if (const JsonValue* v = json_options.find("sim_jobs")) {
    options.sim_jobs = static_cast<std::uint64_t>(
        v->as_integer("options.sim_jobs", 1, 4000000000LL));
  }
  if (const JsonValue* v = json_options.find("sim_warmup")) {
    options.sim_warmup = static_cast<std::uint64_t>(
        v->as_integer("options.sim_warmup", 0, 4000000000LL));
  }
  if (const JsonValue* v = json_options.find("base_seed")) {
    options.base_seed = static_cast<std::uint64_t>(
        v->as_integer("options.base_seed", 0, 4000000000LL));
  }
  if (const JsonValue* v = json_options.find("sim_tails")) {
    options.sim_tails = v->as_bool("options.sim_tails");
  }
  const auto parse_size_dist = [&](const char* key, SizeDistSpec* out) {
    const JsonValue* v = json_options.find(key);
    if (v == nullptr) return;
    const std::string text = v->as_string("options." + std::string(key));
    try {
      *out = SizeDistSpec::parse(text);
    } catch (const Error& e) {
      throw Error("options." + std::string(key) + ": " + e.what());
    }
  };
  parse_size_dist("size_dist_i", &options.size_dist_i);
  parse_size_dist("size_dist_e", &options.size_dist_e);
}

}  // namespace

Scenario scenario_from_json(const JsonValue& root) {
  check_known_keys(root, "",
                   {"name", "description", "view", "axes", "cases",
                    "options"});
  Scenario scenario;
  if (const JsonValue* v = root.find("name")) {
    scenario.name = v->as_string("name");
    ESCHED_CHECK(!scenario.name.empty(), "name: must not be empty");
  }
  if (const JsonValue* v = root.find("description")) {
    scenario.description = v->as_string("description");
  }
  if (const JsonValue* v = root.find("view")) {
    scenario.view = v->as_string("view");
    const auto views = report_view_names();
    ESCHED_CHECK(std::find(views.begin(), views.end(), scenario.view) !=
                     views.end(),
                 "view: unknown report view '" + scenario.view +
                     "' (expected one of: " + joined(views) + ")");
  }
  const JsonValue* axes = root.find("axes");
  const JsonValue* json_cases = root.find("cases");
  if (json_cases != nullptr) {
    parse_cases(*json_cases, scenario);
    if (axes != nullptr) {
      for (const char* param_axis :
           {"k", "rho", "mu_i", "mu_e", "elastic_cap"}) {
        ESCHED_CHECK(axes->find(param_axis) == nullptr,
                     std::string("axes.") + param_axis +
                         ": a spec lists either parameter axes or explicit "
                         "\"cases\", not both");
      }
    }
  }
  if (axes != nullptr) parse_axes(*axes, scenario);
  if (const JsonValue* v = root.find("options")) {
    parse_options(*v, scenario.options);
  }
  scenario.validate();  // semantic checks: stability, policy specs, ...
  ESCHED_CHECK(scenario.num_points() > 0,
               "scenario '" + scenario.name + "' expands to an empty grid");
  return scenario;
}

Scenario parse_scenario_text(const std::string& text,
                             const std::string& origin) {
  try {
    return scenario_from_json(parse_json(text, origin));
  } catch (const Error& e) {
    const std::string what = e.what();
    // Parser errors already carry "<origin>:line:col"; prefix the rest.
    if (what.rfind(origin + ":", 0) == 0) throw;
    throw Error(origin + ": " + what);
  }
}

Scenario load_scenario_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  ESCHED_CHECK(text.has_value(), "cannot open scenario spec '" + path + "'");
  return parse_scenario_text(*text, path);
}

JsonValue scenario_to_json(const Scenario& scenario) {
  JsonValue root = JsonValue::make_object();
  root.set("name", JsonValue::make_string(scenario.name));
  if (!scenario.description.empty()) {
    root.set("description", JsonValue::make_string(scenario.description));
  }
  root.set("view", JsonValue::make_string(scenario.view));

  const auto number_array = [](const auto& values) {
    JsonValue array = JsonValue::make_array();
    for (const auto v : values) {
      array.push_back(JsonValue::make_number(static_cast<double>(v)));
    }
    return array;
  };
  const auto string_array = [](const std::vector<std::string>& values) {
    JsonValue array = JsonValue::make_array();
    for (const auto& v : values) array.push_back(JsonValue::make_string(v));
    return array;
  };

  if (!scenario.cases.empty()) {
    JsonValue cases = JsonValue::make_array();
    for (const CaseSpec& c : scenario.cases) {
      JsonValue item = JsonValue::make_object();
      item.set("k", JsonValue::make_number(c.k));
      item.set("mu_i", JsonValue::make_number(c.mu_i));
      item.set("mu_e", JsonValue::make_number(c.mu_e));
      item.set("rho", JsonValue::make_number(c.rho));
      if (c.elastic_cap != 0) {
        item.set("elastic_cap", JsonValue::make_number(c.elastic_cap));
      }
      cases.push_back(std::move(item));
    }
    root.set("cases", std::move(cases));
  }

  JsonValue axes = JsonValue::make_object();
  if (scenario.cases.empty()) {
    axes.set("k", number_array(scenario.k_values));
    axes.set("rho", number_array(scenario.rho_values));
    axes.set("mu_i", number_array(scenario.mu_i_values));
    axes.set("mu_e", number_array(scenario.mu_e_values));
    axes.set("elastic_cap", number_array(scenario.elastic_caps));
  }
  if (!scenario.trunc_values.empty()) {
    axes.set("truncation", number_array(scenario.trunc_values));
  }
  if (!scenario.fit_orders.empty()) {
    axes.set("fit_order", number_array(scenario.fit_orders));
  }
  if (!scenario.size_dists.empty()) {
    JsonValue dists = JsonValue::make_array();
    for (const SizeDistSpec& spec : scenario.size_dists) {
      dists.push_back(JsonValue::make_string(spec.canonical()));
    }
    axes.set("size_dist", std::move(dists));
  }
  axes.set("policy", string_array(scenario.policies));
  JsonValue solver_names = JsonValue::make_array();
  for (const SolverKind solver : scenario.solvers) {
    solver_names.push_back(JsonValue::make_string(solver_name(solver)));
  }
  axes.set("solver", std::move(solver_names));
  root.set("axes", std::move(axes));

  JsonValue options = JsonValue::make_object();
  const RunOptions& o = scenario.options;
  options.set("fit_order",
              JsonValue::make_number(static_cast<int>(o.fit_order)));
  options.set("truncation_epsilon",
              JsonValue::make_number(o.truncation_epsilon));
  options.set("imax", JsonValue::make_number(static_cast<double>(o.imax)));
  options.set("jmax", JsonValue::make_number(static_cast<double>(o.jmax)));
  options.set("sim_jobs",
              JsonValue::make_number(static_cast<double>(o.sim_jobs)));
  options.set("sim_warmup",
              JsonValue::make_number(static_cast<double>(o.sim_warmup)));
  options.set("base_seed",
              JsonValue::make_number(static_cast<double>(o.base_seed)));
  options.set("sim_tails", JsonValue::make_bool(o.sim_tails));
  // Canonical forms, emitted only when non-default so pre-refactor specs
  // print byte-identically.
  if (!o.size_dist_i.is_exponential()) {
    options.set("size_dist_i",
                JsonValue::make_string(o.size_dist_i.canonical()));
  }
  if (!o.size_dist_e.is_exponential()) {
    options.set("size_dist_e",
                JsonValue::make_string(o.size_dist_e.canonical()));
  }
  root.set("options", std::move(options));
  return root;
}

// ---------------------------------------------------------------------------
// Built-in scenarios, registered as embedded spec documents so they share
// the loader with user files (one construction path, and each doubles as a
// schema example — `esched show <name>` prints the JSON).

namespace {

struct BuiltinSpec {
  const char* name;
  const char* json;
};

constexpr BuiltinSpec kBuiltinSpecs[] = {
    {"fig4", R"json({
      "name": "fig4",
      "description": "Fig. 4 winner maps: IF vs EF (QBD analysis) over the (mu_I, mu_E) grid at rho = 0.5, 0.7, 0.9, k = 4",
      "view": "heatmap",
      "axes": {
        "k": [4],
        "rho": [0.5, 0.7, 0.9],
        "mu_i": {"from": 0.25, "to": 3.5, "step": 0.25},
        "mu_e": {"from": 0.25, "to": 3.5, "step": 0.25},
        "policy": ["IF", "EF"],
        "solver": ["qbd"]
      }
    })json"},
    {"fig5", R"json({
      "name": "fig5",
      "description": "Fig. 5 response-time curves: E[T] under IF and EF vs mu_I (k = 4, mu_E = 1) at rho = 0.5, 0.7, 0.9",
      "view": "vs-mu",
      "axes": {
        "k": [4],
        "rho": [0.5, 0.7, 0.9],
        "mu_i": {"from": 0.25, "to": 3.5, "step": 0.25},
        "mu_e": [1],
        "policy": ["IF", "EF"],
        "solver": ["qbd"]
      }
    })json"},
    {"fig6", R"json({
      "name": "fig6",
      "description": "Fig. 6 scaling: E[T] under IF and EF vs k = 2..16 at rho = 0.9 for mu_I in {0.25, 3.25}, mu_E = 1",
      "view": "vs-k",
      "axes": {
        "k": {"from": 2, "to": 16, "step": 1},
        "rho": [0.9],
        "mu_i": [0.25, 3.25],
        "mu_e": [1],
        "policy": ["IF", "EF"],
        "solver": ["qbd"]
      }
    })json"},
    {"optimality-sweep", R"json({
      "name": "optimality-sweep",
      "description": "S4 optimality check: exact truncated-CTMC E[T] for the policy family {IF, EF, FairShare, Cap2, IF+idle1} (Thm. 5 / App. B)",
      "axes": {
        "k": [4],
        "rho": [0.5, 0.9],
        "mu_i": [0.25, 1, 3.25],
        "mu_e": [1],
        "policy": ["IF", "EF", "FairShare", "Cap2", "IF+idle1"],
        "solver": ["exact"]
      },
      "options": {"truncation_epsilon": 1e-8}
    })json"},
    {"optimality-family", R"json({
      "name": "optimality-family",
      "description": "S4 optimality table: exact E[T] for the enumerable policy family across the diagonal spot settings of Thms. 1/5 and App. B",
      "view": "family",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.5},
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.8},
        {"k": 4, "mu_i": 2, "mu_e": 1, "rho": 0.5},
        {"k": 4, "mu_i": 2, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.5},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 0.5, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 0.9, "mu_e": 1, "rho": 0.7}
      ],
      "axes": {
        "policy": ["IF", "EF", "FairShare", "Cap2", "IF+idle1"],
        "solver": ["exact"]
      },
      "options": {"truncation_epsilon": 1e-9}
    })json"},
    {"analysis-accuracy", R"json({
      "name": "analysis-accuracy",
      "description": "S5 accuracy claim: busy-period QBD vs exact chain vs simulation on a spot grid across the Fig. 4-6 parameter space",
      "view": "accuracy",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.5},
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7},
        {"k": 2, "mu_i": 2, "mu_e": 1, "rho": 0.8},
        {"k": 8, "mu_i": 0.5, "mu_e": 1, "rho": 0.6},
        {"k": 16, "mu_i": 1, "mu_e": 1, "rho": 0.9}
      ],
      "axes": {
        "policy": ["IF", "EF"],
        "solver": ["qbd", "exact", "sim"]
      },
      "options": {
        "truncation_epsilon": 1e-9,
        "sim_jobs": 150000, "sim_warmup": 15000,
        "base_seed": 99
      }
    })json"},
    {"tail-latency", R"json({
      "name": "tail-latency",
      "description": "Response-time tails under IF vs EF at the Fig. 5 extremes: per-class P50/P99 from simulation (the mean-vs-tail trade the paper's objective hides)",
      "view": "tail",
      "cases": [
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.9}
      ],
      "axes": {
        "policy": ["IF", "EF"],
        "solver": ["sim"]
      },
      "options": {
        "sim_jobs": 250000, "sim_warmup": 25000,
        "base_seed": 1234,
        "sim_tails": true
      }
    })json"},
    {"ablation-truncation", R"json({
      "name": "ablation-truncation",
      "description": "Ablation: exact-solver truncation level vs a deep reference solve (k = 4, mu_I = mu_E = 1) — the cost the QBD analysis avoids",
      "view": "truncation",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.9}
      ],
      "axes": {
        "truncation": [10, 20, 40, 80, 160, 400],
        "policy": ["IF"],
        "solver": ["exact", "qbd"]
      }
    })json"},
    {"ablation-coxian", R"json({
      "name": "ablation-coxian",
      "description": "Ablation: busy-period fit order (1/2/3-moment Coxian) vs the exact chain — why S5.2 matches three moments",
      "view": "fit-order",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.5},
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7},
        {"k": 8, "mu_i": 1, "mu_e": 1, "rho": 0.8},
        {"k": 2, "mu_i": 2, "mu_e": 1, "rho": 0.9}
      ],
      "axes": {
        "fit_order": [1, 2, 3],
        "policy": ["EF", "IF"],
        "solver": ["qbd", "exact"]
      },
      "options": {"truncation_epsilon": 1e-9}
    })json"},
    {"sensitivity-scv", R"json({
      "name": "sensitivity-scv",
      "description": "S6 robustness: E[T] under IF vs EF as the job-size SCV sweeps {0.25, 1, 4, 16} (lognormal moment surrogates, both classes), probing the paper's Exp(mu) size assumption",
      "view": "scv",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7}
      ],
      "axes": {
        "size_dist": ["lognormal:0.25", "lognormal:1", "lognormal:4",
                      "lognormal:16"],
        "policy": ["IF", "EF"],
        "solver": ["sim"]
      },
      "options": {"sim_jobs": 400000, "sim_warmup": 40000}
    })json"},
    {"dominance-thm3", R"json({
      "name": "dominance-thm3",
      "description": "Thm. 3 reproduction: pointwise work dominance of IF over the class P on fixed traces, with the average work gap IF buys",
      "view": "dominance",
      "cases": [
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.6},
        {"k": 4, "mu_i": 2, "mu_e": 1, "rho": 0.8},
        {"k": 4, "mu_i": 0.25, "mu_e": 1, "rho": 0.9},
        {"k": 4, "mu_i": 3.25, "mu_e": 1, "rho": 0.7},
        {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.95}
      ],
      "axes": {
        "policy": ["EF", "FairShare", "Cap1", "Cap2", "Cap3"],
        "solver": ["trace"]
      }
    })json"},
};

}  // namespace

Scenario builtin_scenario(const std::string& name) {
  for (const BuiltinSpec& spec : kBuiltinSpecs) {
    if (name == spec.name) {
      Scenario scenario =
          parse_scenario_text(spec.json, "builtin:" + std::string(spec.name));
      ESCHED_ASSERT(scenario.name == name, "builtin spec name mismatch");
      return scenario;
    }
  }
  throw Error("unknown scenario '" + name +
              "'; try one of: " + joined(builtin_scenario_names()));
}

std::vector<std::string> builtin_scenario_names() {
  std::vector<std::string> names;
  for (const BuiltinSpec& spec : kBuiltinSpecs) names.emplace_back(spec.name);
  return names;
}

bool looks_like_spec_path(const std::string& arg) {
  if (arg.find('/') != std::string::npos) return true;
  return arg.size() > 5 && arg.compare(arg.size() - 5, 5, ".json") == 0;
}

std::vector<RunPoint> LoadedSweep::concatenated() const {
  std::vector<RunPoint> all;
  all.reserve(total_points);
  for (const auto& grid : grids) {
    all.insert(all.end(), grid.begin(), grid.end());
  }
  return all;
}

LoadedSweep load_sweep(const std::vector<std::string>& scenario_args,
                       const SweepOverrides& overrides) {
  ESCHED_CHECK(!scenario_args.empty(), "no scenarios given");
  LoadedSweep sweep;
  sweep.scenarios.reserve(scenario_args.size());
  sweep.grids.reserve(scenario_args.size());
  for (const auto& arg : scenario_args) {
    Scenario scenario = looks_like_spec_path(arg) ? load_scenario_file(arg)
                                                  : builtin_scenario(arg);
    if (overrides.base_seed.has_value()) {
      scenario.options.base_seed = *overrides.base_seed;
    }
    if (overrides.sim_jobs > 0) scenario.options.sim_jobs = overrides.sim_jobs;
    sweep.grids.push_back(scenario.expand());  // validates, incl. options
    sweep.scenarios.push_back(std::move(scenario));
  }
  for (const auto& grid : sweep.grids) {
    sweep.scenario_size_dist.push_back(report_has_size_dists(grid));
    if (sweep.scenario_size_dist.back()) sweep.with_size_dist = true;
    sweep.total_points += grid.size();
  }
  return sweep;
}

}  // namespace esched
