// The esched benchmark (perfbench). Generates one workload from a seed, runs it
// through the engine's public entry points (load_sweep / Scenario::expand,
// SweepRunner with set_cache_dir, write_csv_report) as a closed batch of
// one sweep at a time on a fixed thread count, checks every answer against
// the paper-grounded oracles, and prints its metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced cold sweeps and reports the per-layer split instead. See
// README.md next to this file.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/disk_cache.hpp"
#include "engine/report.hpp"
#include "engine/shm_cache.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using esched::RunPoint;
using esched::RunResult;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int n = 1; n < argc; ++n) {
    const std::string flag = argv[n];
    if (n + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string value = argv[++n];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw UsageError("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  if (!(args.seconds > 0.0)) throw UsageError("--seconds must be positive");
  return args;
}

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Fixed sweep thread count: below the core count, so the benchmark's
/// own thread and the host never compete with the workers.
int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 3 ? 2 : 1;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

std::string format_number(const Metric& m) {
  if (m.integer) return std::to_string(static_cast<unsigned long long>(m.value));
  const double v = std::isfinite(m.value) ? m.value : 0.0;
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// One set-up: spec parse and expansion, runner construction, cache
/// directory creation — everything a CLI invocation does before solving.
struct Setup {
  std::vector<RunPoint> points;
  bool with_size_dist = false;
  std::unique_ptr<esched::SweepRunner> runner;
  double seconds = 0.0;
};

Setup set_up(const std::vector<std::string>& specs, int threads,
             const fs::path& cache_dir) {
  const auto start = Clock::now();
  Setup s;
  const esched::LoadedSweep sweep = esched::load_sweep(specs);
  s.points = sweep.concatenated();
  s.with_size_dist = sweep.with_size_dist;
  s.runner = std::make_unique<esched::SweepRunner>(threads);
  s.runner->set_cache_dir(cache_dir.string());
  s.seconds = since(start);
  return s;
}

const char* point_span_name(esched::SolverKind solver) {
  switch (solver) {
    case esched::SolverKind::kQbdAnalysis: return "qbd.point";
    case esched::SolverKind::kExactCtmc: return "exact.solve";
    case esched::SolverKind::kSimulation: return "sim.simulate";
    case esched::SolverKind::kMmkBaseline: return "queueing.mmk";
    case esched::SolverKind::kTraceDominance: return "sim.trace";
  }
  return "unknown.point";
}

/// Everything the traced run measures, and the counts it cross-checks
/// against the program's own metrics registry.
class LayerProbe {
 public:
  LayerProbe(const std::vector<std::string>& specs, int threads)
      : specs_(specs), threads_(threads) {}

  /// A traced cold sweep into `cache_dir`, then one traced warm rerun.
  /// Returns the cold results; *sweep_seconds is the cold sweep's wall.
  std::vector<RunResult> run(const fs::path& cache_dir, const fs::path& csv,
                             double* sweep_seconds, double* setup_seconds);

  /// Layer work outside the sweep: chain construction and a replay of the
  /// sweep's cache traffic, each call in its own span.
  void run_extras(const fs::path& replay_dir);

  std::vector<Metric> metrics(double trace_overhead, double rerun_seconds) const;
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  const SpanLog& log() const { return log_; }

 private:
  void check(const std::string& what, std::uint64_t program,
             std::uint64_t benchmark) {
    if (program != benchmark) {
      mismatches_.push_back(what + ": registry " + std::to_string(program) +
                            " vs benchmark " + std::to_string(benchmark));
    }
  }
  void cross_check();

  std::vector<std::string> specs_;
  int threads_;
  SpanLog log_;
  std::vector<RunPoint> points_;
  std::vector<RunResult> cold_;
  esched::SweepStats cold_stats_;
  double cold_wall_ = 0.0;
  esched::MetricsSnapshot cold_before_, cold_after_, warm_before_, warm_after_;
  std::uint64_t table_entries_ = 0;
  std::uint64_t file_entries_ = 0;
  std::uint64_t report_bytes_ = 0;
  std::vector<std::string> mismatches_;
};

std::vector<RunResult> LayerProbe::run(const fs::path& cache_dir,
                                       const fs::path& csv,
                                       double* sweep_seconds,
                                       double* setup_seconds) {
  // Only the first traced sweep feeds the per-layer split; later ones run
  // the same instrumented path into a discarded log, for the overhead.
  SpanLog discarded;
  SpanLog& log = points_.empty() ? log_ : discarded;
  const ScopedSpan root(log, "run");
  const auto setup_start = Clock::now();
  std::vector<esched::Scenario> scenarios;
  {
    const ScopedSpan span(log, "spec.load", root.id());
    for (const std::string& spec : specs_) {
      scenarios.push_back(esched::load_scenario_file(spec));
    }
  }
  std::vector<RunPoint> points;
  {
    const ScopedSpan span(log, "spec.expand", root.id());
    for (const esched::Scenario& scenario : scenarios) {
      const std::vector<RunPoint> grid = scenario.expand();
      points.insert(points.end(), grid.begin(), grid.end());
    }
  }
  const bool with_size_dist = esched::report_has_size_dists(points);
  esched::SweepRunner runner(threads_);
  {
    const ScopedSpan span(log, "cache.open", root.id());
    runner.set_cache_dir(cache_dir.string());
  }
  *setup_seconds = since(setup_start);

  const esched::MetricsSnapshot before = esched::global_metrics().snapshot();
  const auto start = Clock::now();
  std::vector<RunResult> results;
  esched::SweepStats stats;
  {
    const ScopedSpan sweep(log, "sweep.run", root.id());
    const std::uint64_t sweep_id = sweep.id();
    results = runner.run(points, &stats,
                         [&](std::size_t, const RunPoint& p, const RunResult& r) {
                           if (r.from_cache) return;
                           const double end = log.now();
                           log.add(point_span_name(p.solver),
                                    end - r.solve_seconds, end, sweep_id);
                         });
  }
  *sweep_seconds = since(start);
  const esched::MetricsSnapshot after = esched::global_metrics().snapshot();
  {
    const ScopedSpan span(log, "report.write", root.id());
    esched::write_csv_report(csv.string(), points, results, with_size_dist);
  }
  // The first traced sweep is the one the per-layer metrics describe.
  if (!points_.empty()) return results;
  points_ = points;
  cold_ = results;
  cold_stats_ = stats;
  cold_wall_ = *sweep_seconds;
  cold_before_ = before;
  cold_after_ = after;
  if (auto table = esched::ShmResultCache::open_existing(cache_dir.string())) {
    table_entries_ = table->info().valid_slots;
  }
  file_entries_ =
      esched::DiskResultCache(cache_dir.string()).list_entries(false).size();

  // One warm rerun, as a second CLI invocation would do it.
  const ScopedSpan rerun(log, "sweep.rerun", root.id());
  esched::SweepRunner warm(threads_);
  {
    const ScopedSpan span(log, "cache.open", rerun.id());
    warm.set_cache_dir(cache_dir.string());
  }
  warm_before_ = esched::global_metrics().snapshot();
  std::vector<RunResult> warm_results;
  {
    const ScopedSpan span(log, "sweep.run", rerun.id());
    warm_results = warm.run(points);
  }
  warm_after_ = esched::global_metrics().snapshot();
  {
    const ScopedSpan span(log, "report.write", rerun.id());
    esched::write_csv_report(csv.string(), points, warm_results, with_size_dist);
  }
  report_bytes_ = fs::file_size(csv);
  if (!check_equal(results, warm_results).empty()) {
    mismatches_.push_back("traced warm rerun differs from its cold sweep");
  }
  cross_check();
  return results;
}

void LayerProbe::cross_check() {
  std::uint64_t exact_fresh = 0;
  std::uint64_t exact_iterative = 0;
  std::uint64_t sim_points = 0;
  std::uint64_t sim_completions = 0;
  for (std::size_t n = 0; n < points_.size(); ++n) {
    const RunResult& r = cold_[n];
    if (r.from_cache) continue;
    if (points_[n].solver == esched::SolverKind::kExactCtmc) {
      ++exact_fresh;
      if (r.solver_iterations > 0) ++exact_iterative;
    } else if (points_[n].solver == esched::SolverKind::kSimulation) {
      ++sim_points;
      sim_completions += points_[n].options.sim_jobs + points_[n].options.sim_warmup;
    }
  }
  std::uint64_t method_solves = 0;
  for (const auto& [name, value] : cold_after_.counters) {
    if (name.rfind("exact.method.", 0) == 0 &&
        name.size() > 7 && name.compare(name.size() - 7, 7, ".solves") == 0) {
      method_solves += value - cold_before_.counter_value(name);
    }
  }
  const auto cold = [&](const std::string& name) {
    return counter_delta(cold_before_, cold_after_, name);
  };
  const auto warm = [&](const std::string& name) {
    return counter_delta(warm_before_, warm_after_, name);
  };
  // Direct solvers report zero iterations, SOR at least one.
  check("exact.method.*.solves", method_solves, exact_fresh);
  check("exact.method.sor.solves", cold("exact.method.sor.solves"), exact_iterative);
  check("exact.method.gth+block.solves",
        cold("exact.method.gth.solves") + cold("exact.method.block.solves"),
        exact_fresh - exact_iterative);
  check("sweep.points.failed", cold("sweep.points.failed"), 0);
  check("sweep.points.solved", cold("sweep.points.solved"), cold_stats_.solved_points);
  // Every fresh solve lands in the table or spills to a per-entry file.
  check("cache.shm.stores", cold("cache.shm.stores"), table_entries_);
  check("cache.shm.spills (cold)", cold("cache.shm.spills"), file_entries_);
  check("cache.shm.probe.length count (cold)",
        histogram_delta(cold_before_, cold_after_, "cache.shm.probe.length").count,
        table_entries_);
  check("table + file entries", table_entries_ + file_entries_,
        cold_stats_.solved_points);
  // The warm rerun hits every table entry once; spilled keys miss the
  // table, load from their file and fail to promote into the same window.
  check("cache.shm.hits (warm)", warm("cache.shm.hits"), table_entries_);
  check("cache.shm.probe.length count (warm)",
        histogram_delta(warm_before_, warm_after_, "cache.shm.probe.length").count,
        table_entries_);
  check("cache.shm.spills (warm)", warm("cache.shm.spills"), file_entries_);
  // Each completion is one event and so is each arrival; the jobs still
  // in the system when a run stops arrived without completing.
  check("sim.jobs.completed", cold("sim.jobs.completed"), sim_completions);
  const std::uint64_t events = cold("sim.events");
  if (events < 2 * sim_completions ||
      events > 2 * sim_completions + 10000 * sim_points) {
    mismatches_.push_back("sim.events: registry " + std::to_string(events) +
                          " outside [2, 2 + 10000/point] x completions " +
                          std::to_string(sim_completions));
  }
}

void LayerProbe::run_extras(const fs::path& replay_dir) {
  const ScopedSpan root(log_, "run");
  std::set<std::string> topologies;
  for (const RunPoint& p : points_) {
    const std::string key = esched::exact_topology_key(p);
    if (key.empty() || !topologies.insert(key).second) continue;
    const ScopedSpan span(log_, "exact.build", root.id());
    const esched::ExactGroupSolver group(p);
  }
  const esched::TieredResultCache cache(replay_dir.string());
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (std::size_t n = 0; n < points_.size(); ++n) {
    std::string key = points_[n].cache_key();
    if (!seen.insert(key).second) continue;
    const ScopedSpan span(log_, "cache.store", root.id());
    cache.store(key, cold_[n]);
    keys.push_back(std::move(key));
  }
  for (const std::string& key : keys) {
    const ScopedSpan span(log_, "cache.load", root.id());
    if (!cache.load(key)) {
      mismatches_.push_back("cache replay lost key " + key);
    }
  }
}

std::vector<Metric> LayerProbe::metrics(double trace_overhead,
                                        double rerun_seconds) const {
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit, false});
  };
  const auto count = [&](const std::string& name, double value) {
    out.push_back({name, value, "count", true});
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const auto cold = [&](const std::string& name) {
    return static_cast<double>(counter_delta(cold_before_, cold_after_, name));
  };
  const auto cold_seconds = [&](const std::string& name) {
    return histogram_delta(cold_before_, cold_after_, name).sum;
  };
  const std::map<std::string, double> self = log_.self_seconds();
  const auto self_of = [&](const std::string& layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  add("spec.load_s", log_.durations("spec.load").front(), "s");
  add("spec.expand_s", log_.durations("spec.expand").front(), "s");
  count("spec.points", static_cast<double>(points_.size()));
  add("spec.self_s", self_of("spec"), "s");

  const auto to_us = [](std::vector<double> v) {
    for (double& x : v) x *= 1e6;
    return v;
  };
  const std::vector<double> stores = to_us(log_.durations("cache.store"));
  const std::vector<double> loads = to_us(log_.durations("cache.load"));
  const esched::LogHistogram::Snapshot warm_probe =
      histogram_delta(warm_before_, warm_after_, "cache.shm.probe.length");
  const double warm_hits = static_cast<double>(
      counter_delta(warm_before_, warm_after_, "cache.shm.hits"));
  const double warm_misses = static_cast<double>(
      counter_delta(warm_before_, warm_after_, "cache.shm.misses"));
  add("cache.open_s", log_.durations("cache.open").front(), "s");
  add("cache.store_p50_us", quantile(stores, 0.5), "us");
  add("cache.store_p99_us", quantile(stores, 0.99), "us");
  add("cache.load_p50_us", quantile(loads, 0.5), "us");
  add("cache.load_p99_us", quantile(loads, 0.99), "us");
  add("cache.probe_p99", warm_probe.count == 0 ? 0.0 : warm_probe.quantile(0.99),
      "slots");
  count("cache.spills", cold("cache.shm.spills"));
  add("cache.hit_ratio",
      warm_hits + warm_misses > 0.0 ? warm_hits / (warm_hits + warm_misses) : 0.0,
      "1");
  add("cache.self_s", self_of("cache"), "s");

  // Fresh solves of the traced cold sweep, by layer and by exact chain.
  std::map<std::string, double> group_seconds;
  std::vector<double> qbd_ms;
  double qbd_iters = 0.0;
  double sim_seconds = 0.0;
  double sor_iters = 0.0;
  double states_max = 0.0;
  double flops = 0.0;
  for (std::size_t n = 0; n < points_.size(); ++n) {
    const RunPoint& p = points_[n];
    const RunResult& r = cold_[n];
    if (r.from_cache) continue;
    std::string group = esched::exact_topology_key(p);
    if (group.empty()) group = p.cache_key();
    group_seconds[group] += r.solve_seconds;
    switch (p.solver) {
      case esched::SolverKind::kQbdAnalysis:
        qbd_ms.push_back(1e3 * r.solve_seconds);
        qbd_iters += r.solver_iterations;
        break;
      case esched::SolverKind::kExactCtmc:
        if (r.solver_iterations > 0) sor_iters += r.solver_iterations;
        states_max = std::max(states_max, static_cast<double>(r.num_states));
        if (p.options.size_dist_i.is_exponential()) flops += predicted_block_flops(p);
        break;
      case esched::SolverKind::kSimulation:
        sim_seconds += r.solve_seconds;
        break;
      default:
        break;
    }
  }
  double max_group = 0.0;
  for (const auto& [key, seconds] : group_seconds) max_group = std::max(max_group, seconds);
  const double threads = std::max(1, cold_stats_.threads_used);
  add("sweep.solve_sum_s", cold_stats_.solve_seconds_total, "s");
  add("sweep.parallel_eff",
      cold_wall_ > 0.0 ? cold_stats_.solve_seconds_total / (threads * cold_wall_) : 0.0,
      "1");
  add("sweep.max_group_s", max_group, "s");
  count("sweep.points_failed", cold("sweep.points.failed"));
  add("sweep.rerun_s", rerun_seconds, "s");
  add("sweep.self_s", self_of("sweep"), "s");

  add("exact.build_s", sum(log_.durations("exact.build")), "s");
  add("exact.gth_s", cold_seconds("exact.method.gth.seconds"), "s");
  add("exact.block_s", cold_seconds("exact.method.block.seconds"), "s");
  add("exact.sor_s", cold_seconds("exact.method.sor.seconds"), "s");
  count("exact.gth_solves", cold("exact.method.gth.solves"));
  count("exact.block_solves", cold("exact.method.block.solves"));
  count("exact.sor_solves", cold("exact.method.sor.solves"));
  count("exact.sor_iters", sor_iters);
  add("exact.block_flops_pred", flops, "flop");
  count("exact.states_max", states_max);
  add("exact.self_s", self_of("exact"), "s");

  add("qbd.point_p50_ms", quantile(qbd_ms, 0.5), "ms");
  add("qbd.point_p99_ms", quantile(qbd_ms, 0.99), "ms");
  count("qbd.iters", qbd_iters);
  add("qbd.self_s", self_of("qbd"), "s");

  const double events = cold("sim.events");
  add("sim.simulate_s", sim_seconds, "s");
  count("sim.events", events);
  add("sim.events_per_s", sim_seconds > 0.0 ? events / sim_seconds : 0.0, "1/s");
  add("sim.self_s", self_of("sim"), "s");

  add("report.write_s", log_.durations("report.write").at(1), "s");
  out.push_back({"report.bytes", static_cast<double>(report_bytes_), "B", true});
  add("report.self_s", self_of("report"), "s");

  add("trace.overhead_s", trace_overhead, "s");
  return out;
}

/// Where a result was measured, recorded next to every result.
std::string host_fingerprint(int threads) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"gcc " + __VERSION__ + "\", \"build\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"threads\": " + std::to_string(threads) +
         "}";
}

int run(const Args& args) {
  // make_workload rejects unknown names, so `dir` is always one of the
  // benchmark's own directories before it is cleared.
  const Workload workload = make_workload(args.workload, args.seed);
  const fs::path dir = fs::path(".bench_runs") / args.workload;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> specs;
  for (const SpecFile& spec : workload.specs) {
    const fs::path path = dir / spec.file;
    std::ofstream(path, std::ios::binary) << spec.text;
    specs.push_back(path.string());
  }
  const int threads = bench_threads();
  const std::string host = host_fingerprint(threads);
  std::printf("workload %s seed %llu seconds %g trace %d\nhost %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, host.c_str());

  // Set-up time: the median of repeated set-ups, each into a fresh
  // directory (its table file is created, as a first CLI run would). The
  // set-ups come in bursts between the sweeps, so a passing disturbance of
  // the host touches few of them.
  std::vector<double> setup_samples;
  const auto sample_setups = [&] {
    const auto start = Clock::now();
    for (int n = 0; n < 100 && (n < 5 || since(start) < 0.1); ++n) {
      const fs::path cache_dir = dir / "setup";
      setup_samples.push_back(set_up(specs, threads, cache_dir).seconds);
      fs::remove_all(cache_dir);
    }
  };

  References refs;
  LayerProbe probe(specs, threads);
  std::vector<RunResult> reference;
  std::string reference_csv;
  OracleReport oracle;
  std::vector<RunPoint> points;
  bool with_size_dist = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> sweep_samples, traced_samples, cpu_samples, rerun_samples;
  double peak_rss = 0.0;
  int reruns_per_batch = 0;
  std::string error;
  const fs::path cold_csv = dir / "cold.csv";
  const fs::path warm_csv = dir / "warm.csv";

  // Rerun: a fresh runner on the same directory, report written; checked
  // against the cold sweep (oracle c) outside the timed region.
  const auto rerun = [&](const fs::path& cache_dir) {
    const auto start = Clock::now();
    esched::SweepRunner runner(threads);
    runner.set_cache_dir(cache_dir.string());
    const std::vector<RunResult> results = runner.run(points);
    esched::write_csv_report(warm_csv.string(), points, results, with_size_dist);
    const double seconds = since(start);
    attempted += points.size();
    std::set<std::size_t> bad = check_equal(reference, results);
    const std::set<std::size_t> csv_bad =
        csv_mismatches(reference_csv, read_file(warm_csv));
    bad.insert(csv_bad.begin(), csv_bad.end());
    failed += bad.size();
    return seconds;
  };

  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  try {
    for (int it = 0;; ++it) {
      const auto iteration_start = Clock::now();
      sample_setups();
      const bool traced = args.trace && it % 2 == 1;
      const fs::path cache_dir = dir / ("cache-" + std::to_string(it));
      std::vector<RunResult> results;
      if (traced) {
        double sweep_seconds = 0.0;
        double setup_seconds = 0.0;
        results = probe.run(cache_dir, dir / "traced.csv", &sweep_seconds,
                            &setup_seconds);
        traced_samples.push_back(sweep_seconds);
        setup_samples.push_back(setup_seconds);
      } else {
        Setup s = set_up(specs, threads, cache_dir);
        setup_samples.push_back(s.seconds);
        if (it == 0) {
          points = s.points;
          with_size_dist = s.with_size_dist;
        }
        const double cpu_start = cpu_seconds();
        const auto start = Clock::now();
        results = s.runner->run(points);
        sweep_samples.push_back(since(start));
        cpu_samples.push_back(cpu_seconds() - cpu_start);
        // What one CLI invocation peaks at: set-up plus one cold sweep.
        if (it == 0) peak_rss = peak_rss_mib();
      }
      attempted += results.size();
      if (it == 0) {
        reference = results;
        esched::write_csv_report(cold_csv.string(), points, reference,
                                 with_size_dist);
        reference_csv = read_file(cold_csv);
        oracle = check_values(points, reference, refs);
        failed += oracle.failed.size();
      } else {
        failed += check_equal(reference, results).size();
      }
      if (!traced) {
        if (reruns_per_batch == 0) {
          // Enough back-to-back reruns per batch to take 50 ms, so no
          // sample is a single short interval.
          const double first = rerun(cache_dir);
          reruns_per_batch = static_cast<int>(
              std::clamp(std::ceil(0.05 / std::max(first, 1e-6)), 1.0, 1000.0));
        }
        const auto reruns_start = Clock::now();
        do {
          double batch = 0.0;
          for (int r = 0; r < reruns_per_batch; ++r) batch += rerun(cache_dir);
          rerun_samples.push_back(batch / reruns_per_batch);
        } while (since(reruns_start) < 1.0);
      }
      fs::remove_all(cache_dir);
      // Stop once another iteration would end more than half an iteration
      // past the deadline, so a run overshoots --seconds by at most that.
      // The traced run needs a traced sweep and an untraced one after the
      // first, whose process-level warm-up (page faults, allocator growth)
      // would otherwise count as negative tracing overhead.
      const auto half_iteration = (Clock::now() - iteration_start) / 2;
      if (Clock::now() + half_iteration >= deadline && (!args.trace || it >= 2)) {
        break;
      }
    }
    if (args.trace) probe.run_extras(dir / "replay");
    fs::remove_all(dir / "replay");
  } catch (const std::exception& e) {
    // A point that threw fails the whole sweep it was part of.
    error = e.what();
    attempted += points.size();
    failed += std::max<std::uint64_t>(
        1, esched::global_metrics().counter("sweep.points.failed").total());
  }

  bool correct = error.empty() && failed == 0;
  if (!error.empty()) std::printf("error: %s\n", error.c_str());
  std::size_t value_checks = 0;
  for (const ValueCheck& c : oracle.checks) {
    if (c.oracle != 't') ++value_checks;
    if (!c.passed) {
      std::printf("oracle (%c) FAILED at point %zu: value %.12g reference %.12g "
                  "tolerance %.3g\n",
                  c.oracle, c.index, c.value, c.reference, c.tolerance);
    }
  }
  std::printf("oracles: %zu checks on %zu points, %zu failing\n",
              oracle.checks.size(), points.size(), oracle.failed.size());
  if (error.empty()) {
    bool self_ok = false;
    std::printf("self-test %s\n",
                self_test(points, reference, oracle, reference_csv, refs, &self_ok)
                    .c_str());
    correct = correct && self_ok && value_checks > 0;
  }

  // Set-ups and reruns are sub-millisecond to millisecond operations made
  // mostly of system calls and page faults. On a shared virtual machine
  // their cost switches between a fast and a slow level for seconds at a
  // time, so a run's median lands on either level; the 10th percentile of
  // their many samples follows the fast level whenever a run reaches it.
  const double rerun_p10 = quantile(rerun_samples, 0.1);
  std::vector<Metric> metrics;
  if (error.empty() && args.trace) {
    for (const std::string& m : probe.mismatches()) {
      std::printf("cross-check MISMATCH %s\n", m.c_str());
    }
    std::printf("cross-checks against the metrics registry: %s\n",
                probe.mismatches().empty() ? "all equal" : "MISMATCH");
    correct = correct && probe.mismatches().empty();
    probe.log().write_jsonl((dir / "spans.jsonl").string());
    const std::vector<double> warmed(sweep_samples.begin() + 1, sweep_samples.end());
    metrics = probe.metrics(median(traced_samples) - median(warmed), rerun_p10);
  } else if (error.empty()) {
    metrics = {{"setup_s", quantile(setup_samples, 0.1), "s", false},
               {"sweep_s", median(sweep_samples), "s", false},
               {"cpu_s", median(cpu_samples), "s", false},
               {"peak_rss_mb", peak_rss, "MiB", false}};
  }
  std::printf("samples: setup %zu, cold sweeps %zu (+%zu traced), rerun "
              "batches %zu x %d\n",
              setup_samples.size(), sweep_samples.size(), traced_samples.size(),
              rerun_samples.size(), reruns_per_batch);
  std::printf("sweep_s samples:");
  for (const double v : sweep_samples) std::printf(" %.4f", v);
  std::printf("\ncpu_s samples:");
  for (const double v : cpu_samples) std::printf(" %.4f", v);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-24s %s %s\n", m.name.c_str(), format_number(m).c_str(),
                m.unit.c_str());
  }
  if (!args.trace) {
    std::printf("%-24s %.17g s (p10 of rerun batches; unbounded, see README)\n",
                "rerun_s", rerun_p10);
  }
  const double fail_ratio =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("%-24s %.17g 1 (%llu of %llu point evaluations)\n", "fail_ratio",
              fail_ratio, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t n = 0; n < metrics.size(); ++n) {
    if (n > 0) json += ", ";
    json += "\"" + metrics[n].name + "\": {\"value\": " +
            format_number(metrics[n]) + ", \"unit\": \"" + metrics[n].unit + "\"}";
  }
  json += "}}";
  std::ofstream(dir / "result.json")
      << "{\"host\": " << host << ", \"result\": " << json << "}\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::UsageError& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
