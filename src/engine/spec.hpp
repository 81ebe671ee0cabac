// File-based scenario specs: the data-driven front end of the sweep
// engine. A scenario is a small JSON document naming the sweep axes
// (k, rho, mu_i, mu_e, elastic_cap, truncation, fit_order, policy,
// solver) or an explicit `cases` list, per-run `options`, and a default
// report `view`. User files load through the exact same parser that
// registers the built-in figure scenarios, so "what the paper ran" and
// "what a user authors" share one construction path, and a new workload
// is a data file instead of a .cpp.
//
// Schema (all keys optional unless noted):
//   {
//     "name": "fig5-custom",              // identifier (CSV default name)
//     "description": "...",
//     "view": "vs-mu",                    // report view; see engine/report
//     "axes": {                           // cross-product axes
//       "k": [4],                         // numeric axes: value arrays or
//       "rho": [0.5, 0.7, 0.9],           //   {"from","to","step"} ranges
//       "mu_i": {"from": 0.25, "to": 3.5, "step": 0.25},
//       "mu_e": [1],
//       "elastic_cap": [0],
//       "truncation": [10, 20, 40],       // optional: sets imax = jmax
//       "fit_order": [1, 2, 3],           // optional: busy-period moments
//       "policy": ["IF", "EF"],           // strings, see make_policy
//       "solver": ["qbd"]                 // qbd|exact|sim|mmk|trace
//     },
//     "cases": [                          // replaces the five param axes
//       {"k": 4, "mu_i": 1, "mu_e": 1, "rho": 0.5, "elastic_cap": 0}
//     ],
//     "options": {                        // RunOptions, same field names
//       "fit_order": 3, "truncation_epsilon": 1e-9,
//       "imax": 0, "jmax": 0,
//       "sim_jobs": 200000, "sim_warmup": 20000, "base_seed": 1,
//       "sim_tails": false, "sim_tail_span": 400, "sim_tail_bins": 20000,
//       "trace_horizon": 1500, "trace_seed": 2026
//     }
//   }
//
// Errors are precise: every message names the offending field path
// ("axes.rho[2]: expected a number, ..."), so a broken spec is a
// one-glance fix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "engine/scenario.hpp"

namespace esched {

/// Builds a Scenario from a parsed spec document. Throws esched::Error
/// naming the offending field on unknown keys, type mismatches, empty
/// axes, or invalid values.
Scenario scenario_from_json(const JsonValue& root);

/// Parses `text` as JSON (error positions reported against `origin`) and
/// builds the Scenario.
Scenario parse_scenario_text(const std::string& text,
                             const std::string& origin);

/// Reads and parses a scenario spec file.
Scenario load_scenario_file(const std::string& path);

/// Serializes a Scenario back into spec JSON. Round-trips exactly:
/// scenario_from_json(scenario_to_json(s)) expands to the same RunPoints
/// (axes are emitted as explicit value lists, numbers in round-trippable
/// form).
JsonValue scenario_to_json(const Scenario& scenario);

/// True when a CLI scenario argument names a spec file rather than a
/// built-in: it contains a '/' or ends in ".json".
bool looks_like_spec_path(const std::string& arg);

/// CLI flag overrides applied to every loaded scenario before expansion.
struct SweepOverrides {
  std::optional<std::uint64_t> base_seed;  ///< --seed
  std::uint64_t sim_jobs = 0;              ///< --sim-jobs (0 = keep)
  std::string exact_method;                ///< --exact-method ("" = keep)
};

/// A command line's scenario arguments loaded, overridden, and expanded
/// as ONE sweep — the shared front half of `esched run`, `esched queue
/// init`, and the dist workers. Everything is resolved up front: a typo'd
/// second spec fails before any output exists, and the report schema
/// (whether size_dist columns appear) derives from the FULL expanded
/// grids, never from a shard or chunk slice, so every slice of one sweep
/// emits the same header and `esched merge` accepts them.
struct LoadedSweep {
  std::vector<Scenario> scenarios;
  /// Full expanded grid per scenario (same indexing as `scenarios`).
  std::vector<std::vector<RunPoint>> grids;
  /// report_has_size_dists per grid, and the OR over all of them — the
  /// schema flag every report of this sweep must be written with.
  std::vector<bool> scenario_size_dist;
  bool with_size_dist = false;
  std::size_t total_points = 0;  ///< sum of grid sizes

  /// The grids concatenated in scenario order: the global row order of
  /// the combined report (what --shard and the dist queue slice).
  std::vector<RunPoint> concatenated() const;
};

/// Loads each argument (built-in name or spec path via
/// looks_like_spec_path), applies `overrides`, expands, and derives the
/// combined schema. Throws on unknown names, bad specs, or invalid
/// options — before the caller has produced any output.
LoadedSweep load_sweep(const std::vector<std::string>& scenario_args,
                       const SweepOverrides& overrides = {});

}  // namespace esched
