// `esched` — the scenario-sweep CLI.
//
// Runs scenarios — built-in names or user-authored JSON spec files —
// through the parallel engine, renders a named report view, and writes
// uniform CSV/JSON reports:
//
//   esched list                          # scenarios + report views
//   esched show fig5                     # print a built-in as spec JSON
//   esched run fig6 --threads 4
//   esched run my_sweep.json --view table
//   esched run fig4 fig5 --json out.json # one combined report
//   esched run fig5 --shard 0/2 --out s0.csv   # order-independent shards
//   esched run fig5 --cache-dir .esched-cache  # skip already-solved points
//   esched run fig5 --stream --out f5.csv      # tailable; resumes after a kill
//   esched merge s0.csv s1.csv --out merged.csv
//   esched merge a.json b.json --out m.json    # JSON reports merge too
//   esched cache ls --cache-dir .esched-cache
//   esched cache gc --cache-dir .esched-cache --max-age 86400
//
// Distributed sweeps (the filesystem work queue, src/dist):
//
//   esched queue init fig4 --queue-dir q --chunk 32   # expand into tasks
//   esched work --queue-dir q         # claim/solve/commit chunks (run many)
//   esched status --queue-dir q      # pending/leased/done counts + ETA
//   esched collect --queue-dir q --out merged.csv --json merged.json
//
// (`esched <scenario>` without the `run` keyword still works.)
//
// Each scenario's repeated points solve once. --cache-dir is the only
// reuse across scenarios, invocations and processes: with it, overlapping
// grids (e.g. fig5 is a slice of fig4) solve once.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/work_queue.hpp"
#include "dist/worker.hpp"
#include "engine/disk_cache.hpp"
#include "engine/report.hpp"
#include "engine/shm_cache.hpp"
#include "engine/scenario.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "phase/size_dist.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: esched [run] <scenario-or-spec.json>... [options]\n"
      "       esched list\n"
      "       esched show <scenario>\n"
      "       esched dists\n"
      "       esched merge <shard.csv>... --out merged.csv\n"
      "       esched merge <shard.json>... --out merged.json\n"
      "       esched cache ls --cache-dir D [--format text|json]\n"
      "       esched cache gc --cache-dir D [--max-age S] [--max-bytes B]\n"
      "       esched cache init --cache-dir D [--slots N]\n"
      "       esched cache info --cache-dir D\n"
      "       esched queue init <scenario-or-spec.json>... --queue-dir Q\n"
      "                        [--chunk N] [--seed S] [--sim-jobs N]\n"
      "       esched work --queue-dir Q [--threads N] [--cache-dir D]\n"
      "                   [--lease-ttl S] [--poll-ms M] [--max-chunks N]\n"
      "                   [--owner NAME] [--progress] [--no-wait]\n"
      "                   [--metrics-out P] [--trace P] [--telemetry-dir D]\n"
      "                   [--telemetry-interval S]\n"
      "       esched status --queue-dir Q [--lease-ttl S] [--watch]\n"
      "                     [--interval S] [--telemetry-dir D]\n"
      "       esched collect --queue-dir Q --out merged.csv [--json m.json]\n"
      "       esched trace report <trace.jsonl>... [--format text|folded]\n"
      "                     [--rows N] [--out P]\n"
      "\n"
      "A scenario argument is a built-in name (see `esched list`) or a\n"
      "path to a JSON spec file (anything containing '/' or ending in\n"
      "'.json'); see README for the spec schema.\n"
      "\n"
      "run options:\n"
      "  --threads N     worker threads (default: all hardware threads)\n"
      "  --seed S        base RNG seed for simulation points (default: 1)\n"
      "  --sim-jobs N    measured completions per simulation point\n"
      "  --view NAME     report view (default: the scenario's own view)\n"
      "  --shard I/N     run only shard I of N (contiguous row-order\n"
      "                  split; `esched merge` of the shard CSVs in shard\n"
      "                  order reproduces the unsharded report)\n"
      "  --cache-dir D   persistent result cache: skip points already\n"
      "                  solved by earlier invocations, store new ones\n"
      "  --out PATH      CSV output path (default: <scenario>.csv)\n"
      "  --stream        append CSV rows to --out as points finish (flushed\n"
      "                  per row, so the file can be tailed); if --out\n"
      "                  already holds a partial run, its complete rows are\n"
      "                  kept and the sweep resumes after them (pair with\n"
      "                  --cache-dir so kept rows are disk hits, not\n"
      "                  re-solves — resume skips the writes either way)\n"
      "  --json PATH     also write a JSON report\n"
      "  --rows N        summary rows printed per scenario (default: 20)\n"
      "  --progress      one stderr line per completed row (index, backend,\n"
      "                  E[T], solve time) — the same progress path\n"
      "                  `esched work --progress` uses\n"
      "  --metrics-out P write a metrics snapshot JSON when the run ends:\n"
      "                  per-backend solve-time/state-count histograms,\n"
      "                  cache hit/miss counters, thread utilization (see\n"
      "                  README 'Observability'; observation only — CSV\n"
      "                  and JSON report bytes are unchanged by it)\n"
      "  --trace P       append structured JSONL lifecycle events (one\n"
      "                  object per line: point_done, cache_hit, span_begin,\n"
      "                  ...) to P as the sweep runs; also observation-only\n"
      "  --telemetry-dir D  publish live metrics snapshots to\n"
      "                  D/<owner>.metrics.json every --telemetry-interval\n"
      "                  seconds (default 2) plus a final one at exit;\n"
      "                  `esched status --telemetry-dir D` merges them into\n"
      "                  a fleet view while the sweep runs\n"
      "\n"
      "observability tooling:\n"
      "  trace report    merge worker JSONL traces (deterministic\n"
      "                  (t, pid, seq) order), rebuild the span trees\n"
      "                  (worker > chunk > sweep > point > solve), and\n"
      "                  print a per-phase breakdown plus the slowest\n"
      "                  points; --format folded emits flamegraph-ready\n"
      "                  folded stacks (self time in microseconds)\n"
      "\n"
      "cache options:\n"
      "  --max-age S     gc: evict entries older than S seconds\n"
      "  --max-bytes B   gc: then evict oldest until the directory holds\n"
      "                  at most B bytes\n"
      "\n"
      "distributed queue (many `esched work` processes on one queue\n"
      "directory — local disk or a shared filesystem — cooperatively solve\n"
      "one sweep; see README 'Distributed sweeps'):\n"
      "  queue init      expand the sweep into chunked task files under Q\n"
      "                  (--chunk points per work unit, default 32)\n"
      "  work            claim tasks by atomic rename, solve them through\n"
      "                  the sweep engine, commit per-chunk CSV/JSON\n"
      "                  results atomically; expired leases (--lease-ttl,\n"
      "                  default 60 s since last heartbeat) are requeued,\n"
      "                  so killed workers lose nothing\n"
      "  status          pending/leased/done chunk counts, points done,\n"
      "                  active workers, and an ETA from committed solve\n"
      "                  times; --watch redraws every --interval seconds\n"
      "                  (default 2) with per-worker throughput and a\n"
      "                  rolling ETA from recent commits, exiting when the\n"
      "                  queue finishes\n"
      "  collect         validate completeness and merge the chunk results\n"
      "                  in chunk order: --out CSV is byte-identical to the\n"
      "                  unsharded `esched run` CSV; --json merges the\n"
      "                  chunk JSON reports with recomputed stats\n");
}

/// `esched dists`: the supported size-distribution families.
void print_size_dists() {
  std::printf(
      "size distribution families (options.size_dist_i/size_dist_e and the\n"
      "axes.size_dist sweep axis; each scales to the class mean 1/mu_c, so\n"
      "sweeping a distribution changes variability at fixed load):\n\n");
  for (const auto& info : esched::size_dist_families()) {
    std::printf("  %-20s %s\n", info.syntax, info.summary);
  }
  std::printf(
      "\nbackends: sim accepts any family for either class; exact accepts\n"
      "phase-type *inelastic* sizes (<= 16 phases, state augmentation) and\n"
      "exponential elastic sizes; qbd/mmk/trace require exponential sizes\n"
      "and reject other specs with an error naming the option.\n");
}

void print_scenarios() {
  std::printf("built-in scenarios:\n");
  for (const auto& name : esched::builtin_scenario_names()) {
    const esched::Scenario s = esched::builtin_scenario(name);
    std::printf("  %-20s %4zu points  %s\n", name.c_str(), s.num_points(),
                s.description.c_str());
  }
  std::printf("\nreport views (--view):");
  for (const auto& view : esched::report_view_names()) {
    std::printf(" %s", view.c_str());
  }
  std::printf("\n");
}

/// The "--flag VALUE" accessor of every option parser: returns the
/// argument after args[*n] and advances *n past it.
std::string next_value(const std::vector<std::string>& args, std::size_t* n,
                       const char* flag) {
  if (*n + 1 >= args.size()) {
    throw esched::Error(std::string(flag) + " expects a value");
  }
  return args[++*n];
}

long parse_long(const char* flag, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == value.c_str() || parsed < 0) {
    throw esched::Error(std::string(flag) + " expects a non-negative integer");
  }
  if (errno == ERANGE) {
    throw esched::Error(std::string(flag) + " value '" + value +
                        "' is out of range");
  }
  return parsed;
}

/// parse_long for flags stored in an int.
int parse_int(const char* flag, const std::string& value) {
  const long parsed = parse_long(flag, value);
  if (parsed > std::numeric_limits<int>::max()) {
    throw esched::Error(std::string(flag) + " must be at most " +
                        std::to_string(std::numeric_limits<int>::max()));
  }
  return static_cast<int>(parsed);
}

/// parse_int for interval flags, where 0 would loop without pausing.
int parse_positive_int(const char* flag, const std::string& value) {
  const int parsed = parse_int(flag, value);
  if (parsed < 1) {
    throw esched::Error(std::string(flag) + " must be at least 1");
  }
  return parsed;
}

/// --telemetry-interval: seconds in (0, kMaxTelemetryIntervalSeconds].
double parse_telemetry_interval(const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == value.c_str() ||
      !(parsed > 0.0 && parsed <= esched::kMaxTelemetryIntervalSeconds)) {
    throw esched::Error(
        "--telemetry-interval expects a number of seconds in (0, 86400]");
  }
  return parsed;
}

/// "I/N" with 0 <= I < N.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) {
    throw esched::Error("--shard expects I/N (e.g. --shard 0/4)");
  }
  const long index = parse_long("--shard", value.substr(0, slash));
  const long count = parse_long("--shard", value.substr(slash + 1));
  if (count < 1 || index >= count) {
    throw esched::Error("--shard I/N needs N >= 1 and I < N");
  }
  return {static_cast<std::size_t>(index), static_cast<std::size_t>(count)};
}

/// `esched merge <a.csv> <b.csv> ... --out merged.csv` — or the same with
/// .json report documents (the --out extension picks the format).
int run_merge(const std::vector<std::string>& args) {
  std::vector<std::string> inputs;
  std::string out_path;
  for (std::size_t n = 0; n < args.size(); ++n) {
    if (args[n] == "--out") {
      if (n + 1 >= args.size()) throw esched::Error("--out expects a value");
      out_path = args[++n];
    } else if (!args[n].empty() && args[n][0] == '-') {
      throw esched::Error("unknown merge option '" + args[n] + "'");
    } else {
      inputs.push_back(args[n]);
    }
  }
  if (inputs.empty()) {
    throw esched::Error("merge expects at least one input report");
  }
  if (out_path.empty()) {
    throw esched::Error("merge requires --out <merged.csv|merged.json>");
  }
  const bool json = out_path.ends_with(".json");
  for (const std::string& input : inputs) {
    if (input.ends_with(".json") != json) {
      throw esched::Error(
          "refusing to mix CSV and JSON reports in one merge ('" + input +
          "' vs --out " + out_path + ")");
    }
  }
  const esched::MergeStats stats =
      json ? esched::merge_json_reports(inputs, out_path)
           : esched::merge_csv_reports(inputs, out_path);
  std::printf("merged %zu file%s into %s (%zu rows)\n", stats.files,
              stats.files == 1 ? "" : "s", out_path.c_str(), stats.rows);
  return 0;
}

/// `esched cache ls|gc|init|info --cache-dir D [--max-age S]
/// [--max-bytes B] [--format text|json] [--slots N]`
int run_cache(const std::vector<std::string>& args) {
  if (args.empty() || (args[0] != "ls" && args[0] != "gc" &&
                       args[0] != "init" && args[0] != "info")) {
    throw esched::Error("cache expects a subcommand: ls, gc, init or info");
  }
  const std::string action = args[0];
  std::string cache_dir;
  std::string format = "text";
  std::optional<double> max_age;
  std::optional<std::uintmax_t> max_bytes;
  std::uint64_t slots = esched::ShmResultCache::kDefaultSlotCount;
  for (std::size_t n = 1; n < args.size(); ++n) {
    if (args[n] == "--cache-dir") {
      cache_dir = next_value(args, &n, "--cache-dir");
    } else if (args[n] == "--max-age" && action == "gc") {
      max_age = static_cast<double>(
          parse_long("--max-age", next_value(args, &n, "--max-age")));
    } else if (args[n] == "--max-bytes" && action == "gc") {
      max_bytes = static_cast<std::uintmax_t>(
          parse_long("--max-bytes", next_value(args, &n, "--max-bytes")));
    } else if (args[n] == "--format" && action == "ls") {
      format = next_value(args, &n, "--format");
      if (format != "text" && format != "json") {
        throw esched::Error("--format expects text or json");
      }
    } else if (args[n] == "--slots" && action == "init") {
      slots = static_cast<std::uint64_t>(
          parse_long("--slots", next_value(args, &n, "--slots")));
      if (slots > esched::ShmResultCache::kMaxSlotCount) {
        throw esched::Error(
            "--slots must be at most " +
            std::to_string(esched::ShmResultCache::kMaxSlotCount) +
            " (the table file would not fit a 64-bit file offset)");
      }
    } else {
      throw esched::Error("unknown cache " + action + " option '" + args[n] +
                          "'");
    }
  }
  if (cache_dir.empty()) {
    throw esched::Error("cache " + action + " requires --cache-dir D");
  }

  if (action == "init") {
    const esched::DiskResultCache dir(cache_dir);  // creates the directory
    std::string error;
    const auto table =
        esched::ShmResultCache::open_or_create(cache_dir, slots, &error);
    if (table == nullptr) {
      throw esched::Error("cannot create a cache table in '" + cache_dir +
                          "': " + error);
    }
    const esched::ShmTableInfo info = table->info();
    std::printf(
        "cache table %s: %ju slots x %ju B (payload %ju B, keys up to %ju B), "
        "%ju entries\n",
        info.path.c_str(), static_cast<std::uintmax_t>(info.slot_count),
        static_cast<std::uintmax_t>(info.slot_bytes),
        static_cast<std::uintmax_t>(info.payload_bytes),
        static_cast<std::uintmax_t>(info.key_capacity),
        static_cast<std::uintmax_t>(info.valid_slots));
    return 0;
  }

  // ls/gc/info never create the table: inspecting (or shrinking) a cache
  // directory must not seed a 16 MiB table file in it. Sweeps and `cache
  // init` create tables.
  const esched::TieredResultCache cache(cache_dir, /*create_table=*/false);

  if (action == "info") {
    if (const esched::ShmResultCache* table = cache.table()) {
      const esched::ShmTableInfo info = table->info();
      std::printf("table %s (format v%ju)\n", info.path.c_str(),
                  static_cast<std::uintmax_t>(info.format_version));
      std::printf(
          "  %ju slots x %ju B, payload %ju B, keys up to %ju B, file %ju B\n",
          static_cast<std::uintmax_t>(info.slot_count),
          static_cast<std::uintmax_t>(info.slot_bytes),
          static_cast<std::uintmax_t>(info.payload_bytes),
          static_cast<std::uintmax_t>(info.key_capacity),
          static_cast<std::uintmax_t>(info.file_bytes));
      std::printf("  %ju entries, %ju wedged slot%s\n",
                  static_cast<std::uintmax_t>(info.valid_slots),
                  static_cast<std::uintmax_t>(info.wedged_slots),
                  info.wedged_slots == 1 ? "" : "s");
    } else {
      std::printf(
          "no cache table in %s (file tier only; 'esched cache init' or any "
          "sweep with --cache-dir creates one)\n",
          cache_dir.c_str());
    }
    const auto files = cache.files().list_entries(false);
    std::uintmax_t file_bytes = 0;
    for (const auto& entry : files) file_bytes += entry.bytes;
    std::printf("file tier: %zu entr%s, %ju bytes\n", files.size(),
                files.size() == 1 ? "y" : "ies", file_bytes);
    return 0;
  }

  if (action == "ls") {
    const auto entries = cache.list_entries();
    std::uintmax_t total_bytes = 0;
    for (const auto& entry : entries) total_bytes += entry.bytes;
    if (format == "json") {
      // Machine-readable manifest: same fields as the text table.
      esched::JsonValue doc = esched::JsonValue::make_object();
      doc.set("cache_dir", esched::JsonValue::make_string(cache_dir));
      esched::JsonValue rows = esched::JsonValue::make_array();
      for (const auto& entry : entries) {
        esched::JsonValue row = esched::JsonValue::make_object();
        row.set("key", esched::JsonValue::make_string(entry.key));
        row.set("path", esched::JsonValue::make_string(entry.path));
        row.set("bytes", esched::JsonValue::make_number(
                             static_cast<double>(entry.bytes)));
        row.set("age_seconds",
                esched::JsonValue::make_number(entry.age_seconds));
        row.set("tier", esched::JsonValue::make_string(entry.tier));
        rows.push_back(std::move(row));
      }
      doc.set("entries", std::move(rows));
      doc.set("count", esched::JsonValue::make_number(
                           static_cast<double>(entries.size())));
      doc.set("total_bytes", esched::JsonValue::make_number(
                                 static_cast<double>(total_bytes)));
      std::printf("%s\n", doc.dump().c_str());
      return 0;
    }
    for (const auto& entry : entries) {
      std::printf("%8ju B  age %8.0f s  %-5s  %s\n",
                  static_cast<std::uintmax_t>(entry.bytes), entry.age_seconds,
                  entry.tier.c_str(),
                  entry.key.empty() ? entry.path.c_str() : entry.key.c_str());
    }
    std::printf("total: %zu entr%s, %ju bytes in %s\n", entries.size(),
                entries.size() == 1 ? "y" : "ies", total_bytes,
                cache_dir.c_str());
    return 0;
  }
  if (!max_age.has_value() && !max_bytes.has_value()) {
    throw esched::Error("cache gc needs --max-age and/or --max-bytes");
  }
  const esched::CacheGcResult result = cache.gc(max_age, max_bytes);
  std::printf(
      "cache gc: removed %zu of %zu entries (%ju bytes freed, %ju kept)\n",
      result.removed, result.scanned, result.bytes_removed,
      result.bytes_kept);
  return 0;
}

/// Installs the process-wide trace sink for its lifetime when a --trace
/// path was given (engine layers pick it up via global_trace()), and
/// detaches the sink before the writer is destroyed. Observation only:
/// tracing never alters report bytes, RNG streams, or cache keys.
class TraceScope {
 public:
  explicit TraceScope(const std::string& path) {
    if (!path.empty()) {
      writer_ = std::make_unique<esched::TraceWriter>(path);
      esched::set_global_trace(writer_.get());
    }
  }
  ~TraceScope() {
    if (writer_ != nullptr) esched::set_global_trace(nullptr);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::unique_ptr<esched::TraceWriter> writer_;
};

/// Writes the --metrics-out snapshot (atomic rename, stable schema).
void write_metrics_snapshot(const std::string& path) {
  if (path.empty()) return;
  esched::write_metrics_json(esched::global_metrics(), path);
  std::printf("wrote %s (metrics schema v%d)\n", path.c_str(),
              esched::kMetricsSchemaVersion);
}

/// `esched queue init <scenario>... --queue-dir Q [--chunk N] ...`
int run_queue(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "init") {
    throw esched::Error("queue expects a subcommand: init");
  }
  std::vector<std::string> scenario_args;
  std::string queue_dir;
  std::size_t chunk = 32;
  esched::SweepOverrides overrides;
  for (std::size_t n = 1; n < args.size(); ++n) {
    if (args[n] == "--queue-dir") {
      queue_dir = next_value(args, &n, "--queue-dir");
    } else if (args[n] == "--chunk") {
      chunk = static_cast<std::size_t>(
          parse_long("--chunk", next_value(args, &n, "--chunk")));
    } else if (args[n] == "--seed") {
      overrides.base_seed = static_cast<std::uint64_t>(
          parse_long("--seed", next_value(args, &n, "--seed")));
    } else if (args[n] == "--sim-jobs") {
      overrides.sim_jobs = static_cast<std::uint64_t>(
          parse_long("--sim-jobs", next_value(args, &n, "--sim-jobs")));
    } else if (!args[n].empty() && args[n][0] == '-') {
      throw esched::Error("unknown queue init option '" + args[n] + "'");
    } else {
      scenario_args.push_back(args[n]);
    }
  }
  if (scenario_args.empty()) {
    throw esched::Error("queue init expects at least one scenario or spec");
  }
  if (queue_dir.empty()) {
    throw esched::Error("queue init requires --queue-dir Q");
  }
  if (chunk == 0) {
    throw esched::Error("--chunk must be >= 1");
  }
  const esched::LoadedSweep sweep = esched::load_sweep(scenario_args,
                                                       overrides);
  const esched::WorkQueue queue =
      esched::WorkQueue::init(queue_dir, sweep, chunk);
  std::printf(
      "queue %s: %zu chunks x <=%zu points (%zu points, %zu scenario%s)\n"
      "run `esched work --queue-dir %s` — as many workers as you like\n",
      queue_dir.c_str(), queue.manifest().num_chunks, chunk,
      sweep.total_points, sweep.scenarios.size(),
      sweep.scenarios.size() == 1 ? "" : "s", queue_dir.c_str());
  return 0;
}

/// `esched trace report <trace.jsonl>... [--format text|folded] [--rows N]
/// [--out P]` — merge multi-worker traces and rebuild the span trees.
int run_trace(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "report") {
    throw esched::Error("trace expects a subcommand: report");
  }
  std::vector<std::string> files;
  std::string format = "text";
  std::string out_path;
  std::size_t rows = 10;
  for (std::size_t n = 1; n < args.size(); ++n) {
    if (args[n] == "--format") {
      format = next_value(args, &n, "--format");
      if (format != "text" && format != "folded") {
        throw esched::Error("--format expects text or folded");
      }
    } else if (args[n] == "--rows") {
      rows = static_cast<std::size_t>(
          parse_long("--rows", next_value(args, &n, "--rows")));
    } else if (args[n] == "--out") {
      out_path = next_value(args, &n, "--out");
    } else if (!args[n].empty() && args[n][0] == '-') {
      throw esched::Error("unknown trace report option '" + args[n] + "'");
    } else {
      files.push_back(args[n]);
    }
  }
  if (files.empty()) {
    throw esched::Error("trace report expects at least one trace file");
  }
  const esched::TraceForest forest = esched::build_trace_forest(files);
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::binary);
    if (!out_file.good()) {
      throw esched::Error("cannot write '" + out_path + "'");
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;
  if (format == "folded") {
    esched::print_trace_folded(forest, out);
  } else {
    esched::print_trace_report(forest, out, rows);
  }
  // Written in place, not via atomic_write_file: --out may name a device
  // node, which a temp file renamed over it would replace.
  if (!out_path.empty()) {
    out_file.close();
    if (!out_file) throw esched::Error("error writing '" + out_path + "'");
  }
  return 0;
}

/// `esched work --queue-dir Q [...]`
int run_work(const std::vector<std::string>& args) {
  std::string queue_dir;
  std::string metrics_path;
  std::string trace_path;
  esched::WorkerOptions options;
  options.log = &std::cerr;
  for (std::size_t n = 0; n < args.size(); ++n) {
    if (args[n] == "--queue-dir") {
      queue_dir = next_value(args, &n, "--queue-dir");
    } else if (args[n] == "--metrics-out") {
      metrics_path = next_value(args, &n, "--metrics-out");
    } else if (args[n] == "--trace") {
      trace_path = next_value(args, &n, "--trace");
    } else if (args[n] == "--threads") {
      options.threads =
          parse_int("--threads", next_value(args, &n, "--threads"));
    } else if (args[n] == "--cache-dir") {
      options.cache_dir = next_value(args, &n, "--cache-dir");
    } else if (args[n] == "--owner") {
      options.owner = next_value(args, &n, "--owner");
    } else if (args[n] == "--lease-ttl") {
      options.lease_ttl_seconds = static_cast<double>(
          parse_long("--lease-ttl", next_value(args, &n, "--lease-ttl")));
    } else if (args[n] == "--poll-ms") {
      options.poll_ms =
          parse_positive_int("--poll-ms", next_value(args, &n, "--poll-ms"));
    } else if (args[n] == "--max-chunks") {
      options.max_chunks = static_cast<std::size_t>(
          parse_long("--max-chunks", next_value(args, &n, "--max-chunks")));
    } else if (args[n] == "--telemetry-dir") {
      options.telemetry_dir = next_value(args, &n, "--telemetry-dir");
    } else if (args[n] == "--telemetry-interval") {
      options.telemetry_interval_seconds = parse_telemetry_interval(
          next_value(args, &n, "--telemetry-interval"));
    } else if (args[n] == "--progress") {
      options.progress = true;
    } else if (args[n] == "--no-wait") {
      options.wait_for_stragglers = false;
    } else if (args[n] == "--abandon") {
      // Crash-test hook: claim a chunk and exit holding the lease, so CI
      // can exercise lease expiry + requeue deterministically.
      options.abandon = true;
    } else {
      throw esched::Error("unknown work option '" + args[n] + "'");
    }
  }
  if (queue_dir.empty()) {
    throw esched::Error("work requires --queue-dir Q");
  }
  const TraceScope trace(trace_path);
  const esched::WorkerSummary summary = esched::run_worker(queue_dir, options);
  write_metrics_snapshot(metrics_path);
  std::printf("work %s: %zu chunks (%zu points) solved, %zu requeued%s\n",
              queue_dir.c_str(), summary.chunks_solved, summary.points_solved,
              summary.chunks_requeued,
              summary.queue_drained ? "; queue drained" : "");
  if (summary.queue_failed > 0) {
    std::fprintf(stderr,
                 "esched: %zu chunk(s) failed permanently (deterministic "
                 "solver errors; see %s/failed/ and `esched status`)\n",
                 summary.queue_failed, queue_dir.c_str());
    return 1;
  }
  return 0;
}

/// printf-style append. Status frames are assembled fully before any
/// write so `--watch` repaints with one fputs — no torn frames when the
/// terminal is shared with worker stderr.
void appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list sizing;
  va_copy(sizing, ap);
  const int len = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (len > 0) {
    // vsnprintf writes a terminating NUL; C++17 lets it land on the
    // string's own terminator, so size the string to the text alone.
    const std::size_t at = out->size();
    out->resize(at + static_cast<std::size_t>(len));
    std::vsnprintf(out->data() + at, static_cast<std::size_t>(len) + 1, fmt,
                   ap);
  }
  va_end(ap);
}

/// One `esched status` frame. The one-shot sections are byte-identical
/// to the historical output; `watch` adds per-worker throughput and a
/// rolling ETA computed from done records committed inside the last
/// `kRollingWindowSeconds` (their mtime age), which tracks the CURRENT
/// fleet speed — the cumulative avg below it never forgets a slow start.
/// Sets *finished when every chunk is done or terminally failed.
constexpr double kRollingWindowSeconds = 120.0;

/// Appends the live-telemetry fleet section: per-worker throughput and
/// heartbeat lag from the published snapshots, then fleet-wide cache
/// effectiveness and per-backend solve-time quantiles — counters summed
/// and histograms BUCKET-merged across workers, so the p50/p99 shown are
/// quantiles of the combined distribution, not averages of per-process
/// quantiles.
void append_fleet_status(std::string* out, const std::string& telemetry_dir) {
  const esched::FleetSnapshot fleet =
      esched::read_fleet_telemetry(telemetry_dir);
  if (fleet.workers.empty() && fleet.skipped_files == 0) return;
  appendf(out, "  fleet telemetry (%s): %zu worker%s", telemetry_dir.c_str(),
          fleet.workers.size(), fleet.workers.size() == 1 ? "" : "s");
  if (fleet.skipped_files > 0) {
    appendf(out, ", %zu unreadable file%s skipped", fleet.skipped_files,
            fleet.skipped_files == 1 ? "" : "s");
  }
  *out += "\n";
  for (const esched::WorkerTelemetry& worker : fleet.workers) {
    const std::uint64_t points =
        worker.metrics.counter_value("sweep.points.solved");
    const double rate = worker.uptime_seconds > 0.0
                            ? static_cast<double>(points) /
                                  worker.uptime_seconds
                            : 0.0;
    appendf(out,
            "    %-24s %6ju points  %7.2f pts/s  lag %5.1f s%s\n",
            worker.owner.empty() ? "(unnamed)" : worker.owner.c_str(),
            static_cast<std::uintmax_t>(points), rate, worker.age_seconds,
            worker.final_snapshot ? "  [final]" : "");
  }
  const std::uint64_t hits = fleet.merged.counter_value("cache.shm.hits");
  const std::uint64_t misses = fleet.merged.counter_value("cache.shm.misses");
  const std::uint64_t spills = fleet.merged.counter_value("cache.shm.spills");
  if (hits + misses + spills > 0) {
    appendf(out,
            "    cache.shm: %ju hits / %ju misses (%.1f%% hit rate), "
            "%ju spills\n",
            static_cast<std::uintmax_t>(hits),
            static_cast<std::uintmax_t>(misses),
            hits + misses == 0
                ? 0.0
                : 100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses),
            static_cast<std::uintmax_t>(spills));
  }
  for (const auto& [name, hist] : fleet.merged.histograms) {
    // Per-backend solve-time distributions: solver.<backend>.seconds.
    if (hist.count == 0 || name.rfind("solver.", 0) != 0 ||
        !name.ends_with(".seconds")) {
      continue;
    }
    appendf(out, "    %-24s p50 %10.6f s  p99 %10.6f s  (%ju solves)\n",
            name.c_str(), hist.quantile(0.50), hist.quantile(0.99),
            static_cast<std::uintmax_t>(hist.count));
  }
}

std::string render_status(const esched::WorkQueue& queue, double lease_ttl,
                          bool watch, bool* finished) {
  const esched::QueueManifest& manifest = queue.manifest();
  const esched::QueueCounts counts = queue.counts(lease_ttl);
  *finished = counts.done + counts.failed >= manifest.num_chunks;
  std::string out;
  appendf(&out, "queue %s: %zu chunks x <=%zu points (%zu points total)\n",
          queue.directory().c_str(), manifest.num_chunks, manifest.chunk_size,
          manifest.total_points);
  appendf(&out, "  pending: %zu   leased: %zu (%zu expired)   done: %zu/%zu\n",
          counts.pending, counts.leased, counts.expired, counts.done,
          manifest.num_chunks);
  if (counts.failed > 0) {
    appendf(&out, "  FAILED: %zu chunk(s) — deterministic solver errors:\n",
            counts.failed);
    for (const esched::FailureRecord& failure : queue.failures()) {
      appendf(&out, "    chunk %zu (%s): %s\n", failure.chunk,
              failure.owner.c_str(), failure.error.c_str());
    }
  }
  appendf(&out, "  points done: %zu/%zu (%.1f%%)\n", counts.done_points,
          manifest.total_points,
          manifest.total_points == 0
              ? 100.0
              : 100.0 * static_cast<double>(counts.done_points) /
                    static_cast<double>(manifest.total_points));
  if (watch && counts.done > 0) {
    // Per-owner tallies over every committed chunk, plus the recent
    // window for the rolling rate.
    struct Tally {
      std::size_t chunks = 0;
      std::size_t points = 0;
      double seconds = 0.0;
      std::size_t recent_points = 0;
    };
    std::map<std::string, Tally> by_owner;  // sorted -> stable frames
    std::size_t recent_points = 0;
    double recent_span = 0.0;
    for (const esched::ChunkRecord& record : queue.completed()) {
      Tally& tally =
          by_owner[record.owner.empty() ? "(unknown)" : record.owner];
      ++tally.chunks;
      tally.points += record.rows;
      tally.seconds += record.solve_seconds;
      if (record.age_seconds <= kRollingWindowSeconds) {
        recent_points += record.rows;
        tally.recent_points += record.rows;
        recent_span = std::max(recent_span, record.age_seconds);
      }
    }
    appendf(&out, "  workers (committed chunks):\n");
    for (const auto& [owner, tally] : by_owner) {
      appendf(&out, "    %-24s %4zu chunks  %6zu points  %.4f s/point",
              owner.c_str(), tally.chunks, tally.points,
              tally.points == 0
                  ? 0.0
                  : tally.seconds / static_cast<double>(tally.points));
      if (tally.recent_points > 0) {
        appendf(&out, "  [%zu recent]", tally.recent_points);
      }
      out += "\n";
    }
    if (recent_points > 0 && !*finished) {
      const double span = std::max(recent_span, 1.0);
      const double rate = static_cast<double>(recent_points) / span;
      const double eta =
          static_cast<double>(manifest.total_points - counts.done_points) /
          rate;
      appendf(&out,
              "  rolling: %.2f points/s over the last %.0f s -> ~%.1f s "
              "left\n",
              rate, span, eta);
    }
  }
  if (counts.done_points > 0 && counts.done < manifest.num_chunks) {
    const double per_point =
        counts.done_seconds / static_cast<double>(counts.done_points);
    const double remaining =
        per_point *
        static_cast<double>(manifest.total_points - counts.done_points);
    const std::size_t workers =
        counts.active_workers > 0 ? counts.active_workers : 1;
    appendf(&out,
            "  avg solve: %.4f s/point; ~%.1f s of work left (~%.1f s at %zu "
            "active worker%s)\n",
            per_point, remaining, remaining / static_cast<double>(workers),
            workers, workers == 1 ? "" : "s");
  }
  if (counts.done == manifest.num_chunks) {
    appendf(&out, "  complete — `esched collect --queue-dir %s --out ...`\n",
            queue.directory().c_str());
  }
  return out;
}

/// `esched status --queue-dir Q [--lease-ttl S] [--watch] [--interval S]`
int run_status(const std::vector<std::string>& args) {
  std::string queue_dir;
  std::string telemetry_dir;
  double lease_ttl = 60.0;
  bool watch = false;
  double interval = 2.0;
  for (std::size_t n = 0; n < args.size(); ++n) {
    if (args[n] == "--queue-dir") {
      queue_dir = next_value(args, &n, "--queue-dir");
    } else if (args[n] == "--telemetry-dir") {
      telemetry_dir = next_value(args, &n, "--telemetry-dir");
    } else if (args[n] == "--lease-ttl") {
      lease_ttl = static_cast<double>(
          parse_long("--lease-ttl", next_value(args, &n, "--lease-ttl")));
    } else if (args[n] == "--watch") {
      watch = true;
    } else if (args[n] == "--interval") {
      interval = static_cast<double>(parse_positive_int(
          "--interval", next_value(args, &n, "--interval")));
    } else {
      throw esched::Error("unknown status option '" + args[n] + "'");
    }
  }
  if (queue_dir.empty()) {
    throw esched::Error("status requires --queue-dir Q");
  }
  // Leases older than the TTL count as expired: a zero TTL would report
  // every live lease as expired.
  if (!(lease_ttl > 0.0)) {
    throw esched::Error("--lease-ttl must be positive");
  }
  // The conventional in-queue location workers get by pointing
  // --telemetry-dir at <queue-dir>/telemetry; picked up automatically so
  // `esched status --queue-dir Q` shows the fleet without extra flags.
  if (telemetry_dir.empty()) {
    const std::string conventional =
        (std::filesystem::path(queue_dir) / "telemetry").string();
    std::error_code ec;
    if (std::filesystem::is_directory(conventional, ec)) {
      telemetry_dir = conventional;
    }
  }
  const esched::WorkQueue queue(queue_dir);
  bool finished = false;
  if (!watch) {
    std::string frame =
        render_status(queue, lease_ttl, /*watch=*/false, &finished);
    if (!telemetry_dir.empty()) append_fleet_status(&frame, telemetry_dir);
    std::fputs(frame.c_str(), stdout);
    return 0;
  }
#if __has_include(<unistd.h>)
  const bool tty = ::isatty(::fileno(stdout)) != 0;
#else
  const bool tty = false;
#endif
  for (;;) {
    std::string frame =
        render_status(queue, lease_ttl, /*watch=*/true, &finished);
    if (!telemetry_dir.empty()) append_fleet_status(&frame, telemetry_dir);
    // Home + clear on a tty so the frame repaints in place; plain
    // append when piped (each frame stays a parseable block).
    if (tty) std::fputs("\033[H\033[2J", stdout);
    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
    if (finished) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

/// `esched collect --queue-dir Q --out merged.csv [--json merged.json]`
int run_collect(const std::vector<std::string>& args) {
  std::string queue_dir;
  std::string out_path;
  std::string json_path;
  for (std::size_t n = 0; n < args.size(); ++n) {
    if (args[n] == "--queue-dir") {
      queue_dir = next_value(args, &n, "--queue-dir");
    } else if (args[n] == "--out") {
      out_path = next_value(args, &n, "--out");
    } else if (args[n] == "--json") {
      json_path = next_value(args, &n, "--json");
    } else {
      throw esched::Error("unknown collect option '" + args[n] + "'");
    }
  }
  if (queue_dir.empty()) {
    throw esched::Error("collect requires --queue-dir Q");
  }
  if (out_path.empty() && json_path.empty()) {
    throw esched::Error("collect requires --out PATH (and/or --json PATH)");
  }
  const esched::WorkQueue queue(queue_dir);
  queue.sweep_stale_tmp();
  if (!out_path.empty()) {
    const esched::MergeStats stats = esched::merge_csv_reports(
        queue.collectable_paths(/*json=*/false), out_path);
    std::printf("collected %s: %zu rows from %zu chunks\n", out_path.c_str(),
                stats.rows, stats.files);
  }
  if (!json_path.empty()) {
    const esched::MergeStats stats = esched::merge_json_reports(
        queue.collectable_paths(/*json=*/true), json_path);
    std::printf("collected %s: %zu rows from %zu chunks\n", json_path.c_str(),
                stats.rows, stats.files);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> scenario_args;
  int threads = 0;
  std::uint64_t seed = 1;
  bool seed_set = false;
  std::uint64_t sim_jobs = 0;
  std::string view_override;
  std::string cache_dir;
  std::string out_path;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string telemetry_dir;
  double telemetry_interval = 2.0;
  std::size_t summary_rows = 20;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  bool show_spec = false;
  bool stream = false;
  bool show_progress = false;

  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty()) {
      const std::string& subcommand = args.front();
      const std::vector<std::string> rest(args.begin() + 1, args.end());
      if (subcommand == "merge") return run_merge(rest);
      if (subcommand == "cache") return run_cache(rest);
      if (subcommand == "queue") return run_queue(rest);
      if (subcommand == "work") return run_work(rest);
      if (subcommand == "status") return run_status(rest);
      if (subcommand == "collect") return run_collect(rest);
      if (subcommand == "trace") return run_trace(rest);
    }
    for (std::size_t n = 0; n < args.size(); ++n) {
      const std::string& arg = args[n];
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "list" && scenario_args.empty() && !show_spec) {
        print_scenarios();
        return 0;
      } else if (arg == "dists" && scenario_args.empty() && !show_spec) {
        print_size_dists();
        return 0;
      } else if (arg == "run" && scenario_args.empty() && !show_spec) {
        // explicit subcommand; scenario args follow
      } else if (arg == "show" && scenario_args.empty()) {
        show_spec = true;
      } else if (arg == "--threads") {
        threads = parse_int("--threads", next_value(args, &n, "--threads"));
      } else if (arg == "--seed") {
        seed = static_cast<std::uint64_t>(
            parse_long("--seed", next_value(args, &n, "--seed")));
        seed_set = true;
      } else if (arg == "--sim-jobs") {
        sim_jobs = static_cast<std::uint64_t>(
            parse_long("--sim-jobs", next_value(args, &n, "--sim-jobs")));
      } else if (arg == "--view") {
        view_override = next_value(args, &n, "--view");
      } else if (arg == "--shard") {
        std::tie(shard_index, shard_count) =
            parse_shard(next_value(args, &n, "--shard"));
      } else if (arg == "--cache-dir") {
        cache_dir = next_value(args, &n, "--cache-dir");
      } else if (arg == "--out") {
        out_path = next_value(args, &n, "--out");
      } else if (arg == "--stream") {
        stream = true;
      } else if (arg == "--progress") {
        show_progress = true;
      } else if (arg == "--json") {
        json_path = next_value(args, &n, "--json");
      } else if (arg == "--metrics-out") {
        metrics_path = next_value(args, &n, "--metrics-out");
      } else if (arg == "--trace") {
        trace_path = next_value(args, &n, "--trace");
      } else if (arg == "--telemetry-dir") {
        telemetry_dir = next_value(args, &n, "--telemetry-dir");
      } else if (arg == "--telemetry-interval") {
        telemetry_interval = parse_telemetry_interval(
            next_value(args, &n, "--telemetry-interval"));
      } else if (arg == "--rows") {
        summary_rows = static_cast<std::size_t>(
            parse_long("--rows", next_value(args, &n, "--rows")));
      } else if (!arg.empty() && arg[0] == '-') {
        throw esched::Error("unknown option '" + arg + "'");
      } else {
        scenario_args.push_back(arg);
      }
    }
    if (show_spec) {
      if (scenario_args.empty()) {
        throw esched::Error("show expects a scenario name");
      }
      for (const auto& name : scenario_args) {
        const esched::Scenario scenario =
            esched::looks_like_spec_path(name)
                ? esched::load_scenario_file(name)
                : esched::builtin_scenario(name);
        std::printf("%s\n", esched::scenario_to_json(scenario).dump().c_str());
      }
      return 0;
    }
    if (scenario_args.empty()) {
      print_usage();
      std::printf("\n");
      print_scenarios();
      return 1;
    }
    if (stream && out_path.empty()) {
      throw esched::Error("--stream requires --out PATH");
    }
    const TraceScope trace(trace_path);
    // Live telemetry for standalone runs mirrors the worker path: periodic
    // snapshots under the run's owner identity, final snapshot at exit.
    std::unique_ptr<esched::TelemetryPublisher> telemetry;
    if (!telemetry_dir.empty()) {
      esched::TelemetryOptions telemetry_options;
      telemetry_options.dir = telemetry_dir;
      telemetry_options.owner = esched::default_worker_owner();
      telemetry_options.interval_seconds = telemetry_interval;
      telemetry = std::make_unique<esched::TelemetryPublisher>(
          std::move(telemetry_options));
    }

    esched::SweepRunner runner(threads);
    if (!cache_dir.empty()) runner.set_cache_dir(cache_dir);
    // Load (and expand) every scenario before any output (engine
    // load_sweep, shared with `esched queue init` and the dist workers):
    // a typo'd second spec must not leave a half-written report, and the
    // report schema — whether size_dist columns appear — derives from the
    // FULL expanded sweeps, never from a shard slice, so every shard of
    // one command line shares one header and `esched merge` accepts them.
    esched::SweepOverrides overrides;
    if (seed_set) overrides.base_seed = seed;
    overrides.sim_jobs = sim_jobs;
    esched::LoadedSweep sweep = esched::load_sweep(scenario_args, overrides);
    const bool with_size_dist = sweep.with_size_dist;
    // Rows this invocation will actually run (the shard slices), for the
    // --progress denominator.
    std::size_t invocation_rows = 0;
    for (const auto& grid : sweep.grids) {
      if (shard_count > 1) {
        const auto [begin, end] =
            esched::shard_range(grid.size(), shard_index, shard_count);
        invocation_rows += end - begin;
      } else {
        invocation_rows += grid.size();
      }
    }
    // --out/--json collect every scenario into ONE combined report (the
    // schema is uniform across solvers); without --out each scenario
    // writes its own <name>.csv. With --stream, rows go to --out the
    // moment they complete (resuming a partial file when one exists)
    // instead of in one write at the end.
    std::unique_ptr<esched::StreamingCsvReport> stream_report;
    if (stream) {
      stream_report = std::make_unique<esched::StreamingCsvReport>(
          out_path, with_size_dist);
      if (stream_report->rows_resumed() > 0) {
        std::printf("resuming %s: %zu complete rows kept\n", out_path.c_str(),
                    stream_report->rows_resumed());
      }
    }
    std::size_t streamed_offset = 0;
    std::vector<esched::RunPoint> all_points;
    std::vector<esched::RunResult> all_results;
    esched::SweepStats combined;
    combined.threads_used = runner.num_threads();
    for (std::size_t sc = 0; sc < sweep.scenarios.size(); ++sc) {
      const esched::Scenario& scenario = sweep.scenarios[sc];
      std::printf("=== scenario %s: %s ===\n", scenario.name.c_str(),
                  scenario.description.c_str());
      auto points = std::move(sweep.grids[sc]);
      if (shard_count > 1) {
        // Contiguous row-order split: `esched merge` of the shard CSVs in
        // shard order reproduces the unsharded report row for row.
        const std::size_t total = points.size();
        const auto [begin, end] =
            esched::shard_range(total, shard_index, shard_count);
        points.assign(points.begin() + static_cast<std::ptrdiff_t>(begin),
                      points.begin() + static_cast<std::ptrdiff_t>(end));
        std::printf("shard %zu/%zu: points %zu..%zu of %zu%s\n", shard_index,
                    shard_count, begin, end, total,
                    begin == end ? " (empty)" : "");
      }
      esched::SweepStats stats;
      esched::RowCallback on_row;
      if (stream_report != nullptr || show_progress) {
        const std::size_t base = streamed_offset;
        // The progress callback offsets by `base` itself, so both
        // consumers number rows in the combined invocation order.
        esched::RowCallback progress;
        if (show_progress) {
          progress =
              esched::progress_callback(invocation_rows, std::cerr, base);
        }
        on_row = [&stream_report, progress, base](
                     std::size_t index, const esched::RunPoint& point,
                     const esched::RunResult& result) {
          if (progress) progress(index, point, result);
          if (stream_report != nullptr) {
            stream_report->add_row(base + index, point, result);
          }
        };
      }
      const auto results = runner.run(points, &stats, on_row);
      streamed_offset += points.size();

      // Figure views need the full grid; sharded runs fall back to the
      // generic table.
      std::string view = view_override.empty() ? scenario.view : view_override;
      if (shard_count > 1) view = "table";
      esched::print_view(view, std::cout, scenario, points, results, stats,
                         summary_rows);
      if (view != "table") {
        // The table view already ends with this trailer.
        std::printf("\n");
        esched::print_stats_line(std::cout, stats);
      }

      if (out_path.empty()) {
        // Schema from this scenario's FULL grid, so every shard of one
        // scenario emits the same header however its slice falls.
        const std::string csv_path = scenario.name + ".csv";
        esched::write_csv_report(csv_path, points, results,
                                 static_cast<bool>(
                                     sweep.scenario_size_dist[sc]));
        std::printf("wrote %s (%zu rows)\n", csv_path.c_str(), points.size());
      }
      if (!out_path.empty() || !json_path.empty()) {
        all_points.insert(all_points.end(), points.begin(), points.end());
        all_results.insert(all_results.end(), results.begin(), results.end());
        combined.total_points += stats.total_points;
        combined.solved_points += stats.solved_points;
        combined.cache_hits += stats.cache_hits;
        combined.disk_hits += stats.disk_hits;
        combined.wall_seconds += stats.wall_seconds;
        combined.solve_seconds_total += stats.solve_seconds_total;
      }
      std::printf("\n");
    }
    if (stream_report != nullptr) {
      stream_report->finish(streamed_offset);
      std::printf("streamed %s (%zu rows, %zu resumed, %zu scenario%s)\n",
                  out_path.c_str(), stream_report->rows_emitted(),
                  stream_report->rows_resumed(), scenario_args.size(),
                  scenario_args.size() == 1 ? "" : "s");
    } else if (!out_path.empty()) {
      esched::write_csv_report(out_path, all_points, all_results,
                               with_size_dist);
      std::printf("wrote %s (%zu rows, %zu scenario%s)\n", out_path.c_str(),
                  all_points.size(), scenario_args.size(),
                  scenario_args.size() == 1 ? "" : "s");
    }
    if (!json_path.empty()) {
      esched::write_json_report(json_path, all_points, all_results,
                                &combined, with_size_dist);
      std::printf("wrote %s (%zu rows, %zu scenario%s)\n", json_path.c_str(),
                  all_points.size(), scenario_args.size(),
                  scenario_args.size() == 1 ? "" : "s");
    }
    write_metrics_snapshot(metrics_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esched: %s\n", e.what());
    return 1;
  }
  return 0;
}
