// Tests for the data-driven scenario front end: the JSON parser
// (common/json), the ScenarioSpec loader (engine/spec), round-trips of
// every built-in scenario through serialize -> parse -> expand, and the
// loader's error messages (which must name the offending field).
#include <gtest/gtest.h>

#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/spec.hpp"

namespace esched {
namespace {

/// EXPECT that `expr` throws esched::Error whose message contains `needle`.
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

TEST(Json, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "text", "e": true},
          "f": null, "g": -2e-3})");
  EXPECT_DOUBLE_EQ(v.find("a")->as_number("a"), 1.5);
  EXPECT_EQ(v.find("b")->as_array("b").size(), 3u);
  EXPECT_EQ(v.find("c")->find("d")->as_string("d"), "text");
  EXPECT_TRUE(v.find("c")->find("e")->as_bool("e"));
  EXPECT_TRUE(v.find("f")->is_null());
  EXPECT_DOUBLE_EQ(v.find("g")->as_number("g"), -2e-3);
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(Json, ParsesStringEscapes) {
  const JsonValue v = parse_json(R"(["a\"b", "tab\there", "A"])");
  const auto& items = v.as_array("root");
  EXPECT_EQ(items[0].as_string("0"), "a\"b");
  EXPECT_EQ(items[1].as_string("1"), "tab\there");
  EXPECT_EQ(items[2].as_string("2"), "A");
}

TEST(Json, ErrorsCarryLineAndColumn) {
  EXPECT_THROWS_NAMING(parse_json("{\n  \"a\": nope\n}", "spec.json"),
                       "spec.json:2");
  EXPECT_THROWS_NAMING(parse_json("[1, 2,]"), "invalid");
  EXPECT_THROWS_NAMING(parse_json("{\"a\": 1} trailing"), "trailing");
  EXPECT_THROWS_NAMING(parse_json("{\"a\": 1, \"a\": 2}"), "duplicate");
  EXPECT_THROWS_NAMING(parse_json(""), "end of input");
  EXPECT_THROWS_NAMING(parse_json(R"(["\ud83d\ude00"])"), "surrogate");
  EXPECT_THROWS_NAMING(parse_json(std::string(100000, '[')), "nesting");
}

TEST(Json, NumberSerializationRoundTripsBitwise) {
  for (const double value :
       {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e-300, 6.02e23, 0.7,
        0.1234567890123456789, 2.2250738585072014e-308}) {
    const std::string text = json_number_to_string(value);
    const JsonValue parsed = parse_json(text);
    EXPECT_EQ(parsed.as_number("n"), value) << text;
  }
}

TEST(Json, DumpParseRoundTrip) {
  const std::string text =
      R"({"name": "x", "values": [1, 0.25, true, "s"], "nested": {"k": []}})";
  const JsonValue v = parse_json(text);
  const JsonValue again = parse_json(v.dump());
  EXPECT_EQ(again.find("values")->as_array("values").size(), 4u);
  EXPECT_EQ(v.dump(), again.dump());
}

TEST(Spec, EveryBuiltinRoundTripsThroughSerializeParseExpand) {
  for (const auto& name : builtin_scenario_names()) {
    const Scenario original = builtin_scenario(name);
    const std::string text = scenario_to_json(original).dump();
    const Scenario reparsed = parse_scenario_text(text, name + ".json");
    EXPECT_EQ(reparsed.name, original.name) << name;
    EXPECT_EQ(reparsed.view, original.view) << name;
    EXPECT_EQ(reparsed.num_points(), original.num_points()) << name;
    const auto points_a = original.expand();
    const auto points_b = reparsed.expand();
    ASSERT_EQ(points_a.size(), points_b.size()) << name;
    for (std::size_t n = 0; n < points_a.size(); ++n) {
      // Cache keys cover params + policy + solver + live options in
      // round-trippable decimal form: equal keys == equal points.
      EXPECT_EQ(points_a[n].cache_key(), points_b[n].cache_key())
          << name << " point " << n;
    }
  }
}

TEST(Spec, RangeAxisMatchesBuiltinMuGridBitwise) {
  // The paper's 0.25-step grid authored as a range must reproduce the
  // fig5 builtin's axis values bitwise (same accumulation loop).
  const Scenario ranged = parse_scenario_text(
      R"({"name": "g", "axes": {"mu_i": {"from": 0.25, "to": 3.5,
          "step": 0.25}}})",
      "test");
  const Scenario fig5 = builtin_scenario("fig5");
  ASSERT_EQ(ranged.mu_i_values.size(), fig5.mu_i_values.size());
  for (std::size_t n = 0; n < ranged.mu_i_values.size(); ++n) {
    EXPECT_EQ(ranged.mu_i_values[n], fig5.mu_i_values[n]);
  }
}

TEST(Spec, UserSpecReproducesFig5Points) {
  // A hand-authored spec (the README example) expands to the same run
  // points as the built-in fig5 scenario — no recompile needed.
  const std::string text = R"({
    "name": "my-fig5",
    "view": "vs-mu",
    "axes": {
      "k": [4],
      "rho": [0.5, 0.7, 0.9],
      "mu_i": {"from": 0.25, "to": 3.5, "step": 0.25},
      "mu_e": [1],
      "policy": ["IF", "EF"],
      "solver": ["qbd"]
    }
  })";
  const Scenario user = parse_scenario_text(text, "my_fig5.json");
  const auto user_points = user.expand();
  const auto builtin_points = builtin_scenario("fig5").expand();
  ASSERT_EQ(user_points.size(), builtin_points.size());
  for (std::size_t n = 0; n < user_points.size(); ++n) {
    EXPECT_EQ(user_points[n].cache_key(), builtin_points[n].cache_key());
  }
}

TEST(Spec, LoadScenarioFileReadsDisk) {
  const std::string path = testing::TempDir() + "spec_load_test.json";
  {
    std::ofstream out(path);
    out << R"({"name": "from-disk", "axes": {"rho": [0.5]}})";
  }
  const Scenario s = load_scenario_file(path);
  EXPECT_EQ(s.name, "from-disk");
  EXPECT_EQ(s.rho_values, std::vector<double>({0.5}));
  std::remove(path.c_str());
  EXPECT_THROWS_NAMING(load_scenario_file(path), path);
}

TEST(Spec, UnknownKeysAreNamed) {
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"nmae": "typo"})", "t"), "nmae");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"mu": [1]}})", "t"), "mu");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"options": {"sim_job": 5}})", "t"), "sim_job");
  // Retired keys are rejected like typos, by their full path.
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"options": {"sim_raw_seed": true}})", "t"),
      "options.sim_raw_seed");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"options": {"method": "sor"}})", "t"),
      "options.method");
  for (const char* key :
       {"sim_tail_span", "sim_tail_bins", "trace_horizon", "trace_seed"}) {
    EXPECT_THROWS_NAMING(
        parse_scenario_text(
            std::string(R"({"options": {")") + key + R"(": 1}})", "t"),
        std::string("options.") + key + ": unknown key");
  }
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"cases": [{"mu_i": 1, "mu_e": 1, "rho": 0.5,
                             "kk": 4}]})", "t"),
      "kk");
}

TEST(Spec, NonNumericAxisValuesAreNamedWithIndex) {
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"rho": [0.5, "high"]}})", "t"),
      "axes.rho[1]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"k": [2.5]}})", "t"), "axes.k[0]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"fit_order": [4]}})", "t"),
      "axes.fit_order[0]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"policy": ["IF", "Bogus"]}})", "t"),
      "axes.policy[1]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"axes": {"size_dist": ["exp", "erlang:-2"]}})", "t"),
      "axes.size_dist[1]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"solver": ["qbd", "fancy"]}})", "t"),
      "axes.solver[1]");
}

TEST(Spec, EmptyGridsAreRejected) {
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"rho": []}})", "t"), "axes.rho");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"axes": {"policy": []}})", "t"), "axes.policy");
  EXPECT_THROWS_NAMING(parse_scenario_text(R"({"cases": []})", "t"), "cases");
}

TEST(Spec, SemanticErrorsAreNamed) {
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"name": "u", "axes": {"rho": [1.2]}})", "t"),
      "rho");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"axes": {"rho": {"from": 1, "to": 0.5, "step": 0.1}}})", "t"),
      "axes.rho");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"view": "pie-chart"})", "t"), "pie-chart");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"cases": [{"mu_i": 1, "mu_e": 1, "rho": 0.5}],
              "axes": {"k": [2]}})",
          "t"),
      "axes.k");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(R"({"cases": [{"mu_i": 1, "rho": 0.5}]})", "t"),
      "cases[0]");
  EXPECT_THROWS_NAMING(
      parse_scenario_text(
          R"({"options": {"truncation_epsilon": 2}})", "t"),
      "truncation_epsilon");
}

TEST(Spec, TruncationAndFitAxesParse) {
  const Scenario s = parse_scenario_text(
      R"({"name": "axes", "axes": {
            "truncation": [10, 20], "fit_order": [1, 2, 3],
            "policy": ["IF"], "solver": ["exact", "qbd"]}})",
      "t");
  EXPECT_EQ(s.trunc_values, std::vector<long>({10, 20}));
  EXPECT_EQ(s.fit_orders, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(s.num_points(), 1u * 2u * 3u * 1u * 2u);
}

}  // namespace
}  // namespace esched
