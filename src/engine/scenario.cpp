#include "engine/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/policies.hpp"

namespace esched {

const char* solver_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kQbdAnalysis: return "qbd";
    case SolverKind::kExactCtmc: return "exact";
    case SolverKind::kSimulation: return "sim";
    case SolverKind::kMmkBaseline: return "mmk";
    case SolverKind::kTraceDominance: return "trace";
  }
  ESCHED_ASSERT(false, "unreachable solver kind");
}

SolverKind parse_solver(const std::string& name) {
  if (name == "qbd") return SolverKind::kQbdAnalysis;
  if (name == "exact") return SolverKind::kExactCtmc;
  if (name == "sim") return SolverKind::kSimulation;
  if (name == "mmk") return SolverKind::kMmkBaseline;
  if (name == "trace") return SolverKind::kTraceDominance;
  throw Error("unknown solver '" + name +
              "' (expected qbd|exact|sim|mmk|trace)");
}

PolicyPtr make_policy(const std::string& spec) {
  if (spec == "IF") return make_inelastic_first();
  if (spec == "EF") return make_elastic_first();
  if (spec == "FairShare") return make_fair_share();
  if (spec.rfind("Cap", 0) == 0 && spec.size() > 3) {
    char* end = nullptr;
    const long cap = std::strtol(spec.c_str() + 3, &end, 10);
    ESCHED_CHECK(end != nullptr && *end == '\0' && cap >= 0,
                 "bad policy spec '" + spec + "': CapN needs integer N >= 0");
    return make_inelastic_cap(static_cast<int>(cap));
  }
  if (spec.rfind("IF+idle", 0) == 0 && spec.size() > 7) {
    char* end = nullptr;
    const double idle = std::strtod(spec.c_str() + 7, &end);
    ESCHED_CHECK(end != nullptr && *end == '\0' && idle >= 0.0,
                 "bad policy spec '" + spec + "': IF+idleX needs X >= 0");
    return make_idling(make_inelastic_first(), idle);
  }
  throw Error("unknown policy spec '" + spec +
              "' (expected IF|EF|FairShare|CapN|IF+idleX)");
}

namespace {

/// Appends `label` and the round-trippable decimal form of `value` to a
/// cache key. The standard defines this to_chars overload as printf's
/// "%.17g", the format every existing key (and the disk-cache entries
/// stored under it) was written in, at a fraction of its cost.
void append_key_double(std::string& key, const char* label, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 17);
  key += label;
  key.append(buf, result.ptr);
}

}  // namespace

void RunOptions::validate() const {
  ESCHED_CHECK(truncation_epsilon > 0.0 && truncation_epsilon < 1.0,
               "options.truncation_epsilon must be in (0,1)");
  ESCHED_CHECK(imax >= 0 && jmax >= 0,
               "options.imax/jmax must be >= 0 (0 = derive from rho)");
  ESCHED_CHECK(sim_jobs > 0, "options.sim_jobs must be positive");
  ESCHED_CHECK(sim_jobs > sim_warmup,
               "options.sim_jobs (" + std::to_string(sim_jobs) +
                   ") must exceed options.sim_warmup (" +
                   std::to_string(sim_warmup) +
                   "); a sweep that is mostly warmup measures noise");
  // simulate() splits the measured jobs into SimOptions::batches (20)
  // batch-means batches.
  ESCHED_CHECK(sim_jobs >= 40,
               "options.sim_jobs must be >= 40 (two observations per "
               "batch-means batch)");
  const int fit = static_cast<int>(fit_order);
  ESCHED_CHECK(fit >= 1 && fit <= 3, "options.fit_order must be 1, 2, or 3");
}

std::string RunPoint::cache_key() const {
  std::string key;
  key.reserve(160);
  key += "k=" + std::to_string(params.k);
  append_key_double(key, ";li=", params.lambda_i);
  append_key_double(key, ";le=", params.lambda_e);
  append_key_double(key, ";mi=", params.mu_i);
  append_key_double(key, ";me=", params.mu_e);
  key += ";cap=" + std::to_string(params.elastic_cap);
  key += ";policy=" + policy;
  key += ";solver=";
  key += solver_name(solver);
  // Backend-sensitive suffix: only knobs this solver actually reads, so an
  // axis a backend ignores (e.g. fit_order for 'exact') shares one solve.
  switch (solver) {
    case SolverKind::kQbdAnalysis:
      key += ";fit=" + std::to_string(static_cast<int>(options.fit_order));
      // Revision bumped like the exact one below. rev=1: R comes from
      // logarithmic reduction instead of Neuts' fixed point. rev=2: the
      // residual is max-abs(A0 + R A1 + R^2 A2), no longer sp(R).
      key += ";rev=2";
      break;
    case SolverKind::kExactCtmc:
      append_key_double(key, ";eps=", options.truncation_epsilon);
      key += ";imax=" + std::to_string(options.imax);
      key += ";jmax=" + std::to_string(options.jmax);
      // Bumped whenever the solver path behind a key can change result
      // bytes, so warm caches miss instead of serving the old path's rows.
      // rev=2: the block solver levels along the cheaper axis per policy.
      // rev=3: the block method may eliminate in nested-dissection order.
      // rev=4: SOR is gone; phase-type chains may fold along j, and
      // reducible chains solve their closed class.
      key += ";rev=4";
      break;
    case SolverKind::kSimulation:
      key += ";jobs=" + std::to_string(options.sim_jobs);
      key += ";warmup=" + std::to_string(options.sim_warmup);
      key += ";seed=" + std::to_string(options.base_seed);
      if (options.sim_tails) {
        key += ";tails=1";
        append_key_double(key, ";span=", kSimTailSpan);
        key += ";bins=" + std::to_string(kSimTailBins);
      }
      break;
    case SolverKind::kMmkBaseline: break;
    case SolverKind::kTraceDominance:
      append_key_double(key, ";horizon=", kTraceHorizon);
      key += ";tseed=" + std::to_string(kTraceSeed);
      break;
  }
  // Size distributions are part of every point's identity — also for the
  // solvers that *reject* non-exponential specs: a qbd point with a
  // non-exp size must not collide with its exponential twin, or the sweep
  // runner's disk cache would hand back the exponential result on a
  // row labelled otherwise instead of the rejection error. Only
  // non-exponential specs appear, so every pre-refactor key — and the
  // disk-cache entries stored under it — stays byte-identical.
  if (!options.size_dist_i.is_exponential()) {
    key += ";sdi=" + options.size_dist_i.canonical();
  }
  if (!options.size_dist_e.is_exponential()) {
    key += ";sde=" + options.size_dist_e.canonical();
  }
  return key;
}

std::uint64_t RunPoint::seed() const {
  // FNV-1a over the canonical key: platform-independent and stable, so a
  // point's RNG stream never depends on scheduling order or thread count.
  const std::uint64_t h = fnv1a64(cache_key());
  return h == 0 ? 1 : h;  // xoshiro-style generators reject all-zero seeds
}

std::size_t Scenario::num_points() const {
  const std::size_t param_cells =
      cases.empty() ? k_values.size() * rho_values.size() *
                          mu_i_values.size() * mu_e_values.size() *
                          elastic_caps.size()
                    : cases.size();
  const std::size_t truncs = trunc_values.empty() ? 1 : trunc_values.size();
  const std::size_t fits = fit_orders.empty() ? 1 : fit_orders.size();
  const std::size_t dists = size_dists.empty() ? 1 : size_dists.size();
  return param_cells * truncs * fits * dists * policies.size() *
         solvers.size();
}

void Scenario::validate() const {
  if (cases.empty()) {
    ESCHED_CHECK(!k_values.empty() && !rho_values.empty() &&
                     !mu_i_values.empty() && !mu_e_values.empty() &&
                     !elastic_caps.empty(),
                 "scenario '" + name + "' has an empty axis");
  }
  ESCHED_CHECK(!policies.empty() && !solvers.empty(),
               "scenario '" + name + "' has an empty axis");
  for (const auto& spec : policies) make_policy(spec);  // throws if unknown
  for (const long trunc : trunc_values) {
    ESCHED_CHECK(trunc >= 1,
                 "scenario '" + name + "': truncation levels must be >= 1");
  }
  for (const int fit : fit_orders) {
    ESCHED_CHECK(fit >= 1 && fit <= 3,
                 "scenario '" + name + "': fit_order must be 1, 2, or 3");
  }
  try {
    options.validate();
  } catch (const Error& e) {
    throw Error("scenario '" + name + "': " + e.what());
  }
  if (!cases.empty()) {
    for (const CaseSpec& c : cases) {
      ESCHED_CHECK(c.rho >= 0.0 && c.rho < 1.0,
                   "scenario '" + name + "': rho must be in [0,1)");
      SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
      p.elastic_cap = c.elastic_cap;
      p.validate();
    }
    return;
  }
  for (const double rho : rho_values) {
    ESCHED_CHECK(rho >= 0.0 && rho < 1.0,
                 "scenario '" + name + "': rho must be in [0,1)");
  }
  for (const int k : k_values) {
    for (const double mu_i : mu_i_values) {
      for (const double mu_e : mu_e_values) {
        for (const int cap : elastic_caps) {
          SystemParams p = SystemParams::from_load(k, mu_i, mu_e, 0.0);
          p.elastic_cap = cap;
          p.validate();
        }
      }
    }
  }
}

std::vector<RunPoint> Scenario::expand() const {
  validate();

  std::vector<SystemParams> cells;
  if (cases.empty()) {
    cells.reserve(k_values.size() * rho_values.size() * mu_i_values.size() *
                  mu_e_values.size() * elastic_caps.size());
    for (const int k : k_values) {
      for (const double rho : rho_values) {
        for (const double mu_i : mu_i_values) {
          for (const double mu_e : mu_e_values) {
            for (const int cap : elastic_caps) {
              SystemParams p = SystemParams::from_load(k, mu_i, mu_e, rho);
              p.elastic_cap = cap;
              cells.push_back(p);
            }
          }
        }
      }
    }
  } else {
    cells.reserve(cases.size());
    for (const CaseSpec& c : cases) {
      SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
      p.elastic_cap = c.elastic_cap;
      cells.push_back(p);
    }
  }

  // Sentinel-extended optional axes: one pass with "leave options alone".
  const std::vector<long> truncs =
      trunc_values.empty() ? std::vector<long>{0} : trunc_values;
  const std::vector<int> fits =
      fit_orders.empty() ? std::vector<int>{0} : fit_orders;
  // An empty size_dist axis must not touch the options (they may carry
  // explicit per-class specs), so the sentinel is "no assignment".
  const std::size_t ndists = size_dists.empty() ? 1 : size_dists.size();

  std::vector<RunPoint> points;
  points.reserve(num_points());
  for (const SystemParams& p : cells) {
    for (const long trunc : truncs) {
      for (const int fit : fits) {
        for (std::size_t dist = 0; dist < ndists; ++dist) {
          RunOptions point_options = options;
          if (trunc > 0) point_options.imax = point_options.jmax = trunc;
          if (fit > 0) {
            point_options.fit_order = static_cast<BusyFitOrder>(fit);
          }
          if (!size_dists.empty()) {
            point_options.size_dist_i = size_dists[dist];
            point_options.size_dist_e = size_dists[dist];
          }
          for (const auto& policy : policies) {
            for (const SolverKind solver : solvers) {
              points.push_back(RunPoint{p, policy, solver, point_options});
            }
          }
        }
      }
    }
  }
  ESCHED_ASSERT(points.size() == num_points(),
                "grid expansion size mismatch");
  return points;
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t total,
                                                std::size_t index,
                                                std::size_t count) {
  ESCHED_CHECK(count >= 1 && index < count,
               "shard index/count need count >= 1 and index < count");
  // floor(i * total / count) without the i * total product: with
  // total = q * count + r this is q * i + floor(r * i / count), and
  // r * i < count^2 stays in range for any sane shard count.
  ESCHED_CHECK(count <= 0xFFFFFFFFu, "shard count is implausibly large");
  const std::size_t q = total / count;
  const std::size_t r = total % count;
  const auto begin_of = [&](std::size_t i) { return q * i + r * i / count; };
  return {begin_of(index), begin_of(index + 1)};
}

std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t total, std::size_t chunk_size) {
  ESCHED_CHECK(chunk_size >= 1, "chunk size must be >= 1");
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(total / chunk_size + 1);
  for (std::size_t begin = 0; begin < total; begin += chunk_size) {
    ranges.emplace_back(begin, std::min(begin + chunk_size, total));
  }
  return ranges;
}

}  // namespace esched
