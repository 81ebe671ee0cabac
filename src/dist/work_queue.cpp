#include "dist/work_queue.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/invariants.hpp"
#include "common/json.hpp"
#include "engine/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFormat = "esched-queue-v1";

/// Queue-protocol observability handles, resolved once per process.
struct DistMetrics {
  Counter& claimed;               ///< dist.lease.claimed
  Counter& claim_lost;            ///< dist.lease.claim_lost (lost races)
  Counter& requeued;              ///< dist.lease.requeued (expired leases)
  Counter& heartbeats;            ///< dist.heartbeats
  Counter& committed;             ///< dist.chunks.committed
  Counter& failed;                ///< dist.chunks.failed
  LogHistogram& claim_seconds;    ///< dist.claim.seconds
  LogHistogram& commit_seconds;   ///< dist.commit.seconds
};

DistMetrics& dist_metrics() {
  static DistMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return DistMetrics{m.counter("dist.lease.claimed"),
                       m.counter("dist.lease.claim_lost"),
                       m.counter("dist.lease.requeued"),
                       m.counter("dist.heartbeats"),
                       m.counter("dist.chunks.committed"),
                       m.counter("dist.chunks.failed"),
                       m.histogram("dist.claim.seconds"),
                       m.histogram("dist.commit.seconds")};
  }();
  return metrics;
}

std::string chunk_file_name(std::size_t chunk) {
  // Zero-padded so lexical directory order equals chunk order; the parse
  // below keys on the digits, so wider ids (> 999999 chunks) still work.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%06zu", chunk);
  return buf;
}

/// Chunk index from a "chunk-NNN<suffix>" file name; nullopt for foreign
/// files (editor backups, tmp cruft, ...).
std::optional<std::size_t> parse_chunk_file_name(const std::string& name,
                                                 const std::string& suffix) {
  constexpr const char* kPrefix = "chunk-";
  const std::size_t prefix_len = 6;
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  if (name.size() <= prefix_len + suffix.size()) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::size_t value = 0;
  for (std::size_t n = prefix_len; n < name.size() - suffix.size(); ++n) {
    if (name[n] < '0' || name[n] > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(name[n] - '0');
  }
  return value;
}

std::size_t as_index(const JsonValue& v, const std::string& where) {
  return static_cast<std::size_t>(
      v.as_integer(where, 0, std::numeric_limits<long long>::max()));
}

std::string task_json(const ChunkTask& task, const std::string& owner) {
  JsonValue root = JsonValue::make_object();
  root.set("chunk", JsonValue::make_number(static_cast<double>(task.chunk)));
  root.set("begin", JsonValue::make_number(static_cast<double>(task.begin)));
  root.set("end", JsonValue::make_number(static_cast<double>(task.end)));
  if (!owner.empty()) root.set("owner", JsonValue::make_string(owner));
  return root.dump() + "\n";
}

/// Parses a task/lease body. Extra keys (the owner stamp of a requeued
/// lease) are ignored; anything torn or type-mismatched reads as nullopt.
std::optional<ChunkTask> parse_task_text(const std::string& text) {
  try {
    const JsonValue root = parse_json(text, "task");
    const JsonValue* chunk = root.find("chunk");
    const JsonValue* begin = root.find("begin");
    const JsonValue* end = root.find("end");
    if (chunk == nullptr || begin == nullptr || end == nullptr) {
      return std::nullopt;
    }
    ChunkTask task;
    task.chunk = as_index(*chunk, "task.chunk");
    task.begin = as_index(*begin, "task.begin");
    task.end = as_index(*end, "task.end");
    return task;
  } catch (const std::exception&) {
    return std::nullopt;  // torn file: skipped by every scan
  }
}

std::optional<std::string> parse_owner_text(const std::string& text) {
  try {
    const JsonValue root = parse_json(text, "lease");
    if (const JsonValue* owner = root.find("owner")) {
      return owner->as_string("lease.owner");
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

void create_directory_checked(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  ESCHED_CHECK(!ec,
               "cannot create queue directory '" + path + "': " + ec.message());
}

}  // namespace

WorkQueue::WorkQueue(std::string directory)
    : directory_(std::move(directory)) {
  ESCHED_CHECK(!directory_.empty(), "queue directory path is empty");
  const std::string manifest_path = directory_ + "/queue.json";
  const auto text = read_file(manifest_path);
  ESCHED_CHECK(text.has_value(),
               "'" + directory_ +
                   "' is not a work queue (no queue.json manifest; create "
                   "one with `esched queue init`)");
  const JsonValue root = parse_json(*text, manifest_path);
  const JsonValue* format = root.find("format");
  ESCHED_CHECK(format != nullptr &&
                   format->as_string("queue.format") == kManifestFormat,
               manifest_path + ": unknown queue format (expected '" +
                   kManifestFormat + "')");
  const auto field = [&](const char* name) -> const JsonValue& {
    const JsonValue* v = root.find(name);
    ESCHED_CHECK(v != nullptr, manifest_path + ": missing key '" +
                                   std::string(name) + "'");
    return *v;
  };
  manifest_.chunk_size = as_index(field("chunk_size"), "queue.chunk_size");
  manifest_.total_points =
      as_index(field("total_points"), "queue.total_points");
  manifest_.num_chunks = as_index(field("num_chunks"), "queue.num_chunks");
  manifest_.with_size_dist =
      field("with_size_dist").as_bool("queue.with_size_dist");
  const auto& scenarios = field("scenarios").as_array("queue.scenarios");
  ESCHED_CHECK(!scenarios.empty(), manifest_path + ": no scenarios");
  for (const JsonValue& spec : scenarios) {
    manifest_.scenarios.push_back(scenario_from_json(spec));
  }
  ESCHED_CHECK(manifest_.chunk_size >= 1,
               manifest_path + ": chunk_size must be >= 1");
  ESCHED_CHECK(manifest_.num_chunks ==
                   chunk_ranges(manifest_.total_points, manifest_.chunk_size)
                       .size(),
               manifest_path + ": num_chunks does not match total_points / "
                               "chunk_size");
}

WorkQueue WorkQueue::init(const std::string& directory,
                          const LoadedSweep& sweep, std::size_t chunk_size) {
  ESCHED_CHECK(chunk_size >= 1, "queue chunk size must be >= 1");
  ESCHED_CHECK(sweep.total_points > 0, "queue init: the sweep has no points");
  const std::string manifest_path = directory + "/queue.json";
  create_directory_checked(directory);
  ESCHED_CHECK(!fs::exists(manifest_path),
               "'" + directory +
                   "' already holds a queue; collect or remove it first");
  create_directory_checked(directory + "/tasks");
  create_directory_checked(directory + "/leases");
  create_directory_checked(directory + "/results");
  create_directory_checked(directory + "/done");
  create_directory_checked(directory + "/failed");

  const auto ranges = chunk_ranges(sweep.total_points, chunk_size);
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    const ChunkTask task{c, ranges[c].first, ranges[c].second};
    atomic_write_file(directory + "/tasks/" + chunk_file_name(c) + ".json",
                      task_json(task, ""));
  }

  // Manifest last: a queue becomes visible to workers only once every
  // task file is in place.
  JsonValue root = JsonValue::make_object();
  root.set("format", JsonValue::make_string(kManifestFormat));
  root.set("chunk_size",
           JsonValue::make_number(static_cast<double>(chunk_size)));
  root.set("total_points",
           JsonValue::make_number(static_cast<double>(sweep.total_points)));
  root.set("num_chunks",
           JsonValue::make_number(static_cast<double>(ranges.size())));
  root.set("with_size_dist", JsonValue::make_bool(sweep.with_size_dist));
  JsonValue scenarios = JsonValue::make_array();
  for (const Scenario& scenario : sweep.scenarios) {
    scenarios.push_back(scenario_to_json(scenario));
  }
  root.set("scenarios", std::move(scenarios));
  atomic_write_file(manifest_path, root.dump() + "\n");
  return WorkQueue(directory);
}

std::string WorkQueue::task_path(std::size_t chunk) const {
  return directory_ + "/tasks/" + chunk_file_name(chunk) + ".json";
}
std::string WorkQueue::lease_path(std::size_t chunk) const {
  return directory_ + "/leases/" + chunk_file_name(chunk) + ".json";
}
std::string WorkQueue::result_csv_path(std::size_t chunk) const {
  return directory_ + "/results/" + chunk_file_name(chunk) + ".csv";
}
std::string WorkQueue::result_json_path(std::size_t chunk) const {
  return directory_ + "/results/" + chunk_file_name(chunk) + ".json";
}
std::string WorkQueue::done_path(std::size_t chunk) const {
  return directory_ + "/done/" + chunk_file_name(chunk) + ".json";
}
std::string WorkQueue::failed_path(std::size_t chunk) const {
  return directory_ + "/failed/" + chunk_file_name(chunk) + ".json";
}

std::vector<ChunkTask> WorkQueue::pending_tasks() const {
  std::vector<ChunkTask> tasks;
  std::error_code ec;
  for (fs::directory_iterator it(directory_ + "/tasks", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const auto chunk = parse_chunk_file_name(name, ".json");
    if (!chunk.has_value() || *chunk >= manifest_.num_chunks) continue;
    const auto text = read_file(it->path().string());
    if (!text.has_value()) continue;
    const auto task = parse_task_text(*text);
    if (!task.has_value() || task->chunk != *chunk ||
        task->begin >= task->end || task->end > manifest_.total_points) {
      continue;  // torn or foreign: ignored by every scan
    }
    tasks.push_back(*task);
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const ChunkTask& a, const ChunkTask& b) {
              return a.chunk < b.chunk;
            });
  return tasks;
}

std::vector<LeaseInfo> WorkQueue::leases() const {
  std::vector<LeaseInfo> result;
  std::error_code ec;
  for (fs::directory_iterator it(directory_ + "/leases", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const auto chunk = parse_chunk_file_name(name, ".json");
    if (!chunk.has_value() || *chunk >= manifest_.num_chunks) continue;
    LeaseInfo lease;
    lease.chunk = *chunk;
    lease.path = it->path().string();
    const auto age = heartbeat_age_seconds(lease.path);
    if (!age.has_value()) continue;  // vanished between scan and stat
    lease.age_seconds = *age;
    if (const auto text = read_file(lease.path)) {
      if (const auto owner = parse_owner_text(*text)) lease.owner = *owner;
    }
    result.push_back(std::move(lease));
  }
  std::sort(result.begin(), result.end(),
            [](const LeaseInfo& a, const LeaseInfo& b) {
              return a.chunk < b.chunk;
            });
  return result;
}

std::vector<ChunkRecord> WorkQueue::completed() const {
  std::vector<ChunkRecord> records;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (fs::directory_iterator it(directory_ + "/done", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const auto chunk = parse_chunk_file_name(name, ".json");
    if (!chunk.has_value() || *chunk >= manifest_.num_chunks) continue;
    const auto text = read_file(it->path().string());
    if (!text.has_value()) continue;
    try {
      const JsonValue root = parse_json(*text, "done");
      ChunkRecord record;
      record.chunk = *chunk;
      std::error_code age_ec;
      const auto mtime = fs::last_write_time(it->path(), age_ec);
      if (!age_ec) {
        record.age_seconds = std::max(
            0.0, std::chrono::duration<double>(now - mtime).count());
      }
      const JsonValue* begin = root.find("begin");
      const JsonValue* end_v = root.find("end");
      const JsonValue* rows = root.find("rows");
      if (begin == nullptr || end_v == nullptr || rows == nullptr) continue;
      record.begin = as_index(*begin, "done.begin");
      record.end = as_index(*end_v, "done.end");
      record.rows = as_index(*rows, "done.rows");
      if (const JsonValue* owner = root.find("owner")) {
        record.owner = owner->as_string("done.owner");
      }
      if (const JsonValue* seconds = root.find("solve_seconds")) {
        record.solve_seconds = seconds->as_number("done.solve_seconds");
      }
      records.push_back(std::move(record));
    } catch (const std::exception&) {
      continue;  // torn record: the chunk reads as unfinished
    }
  }
  std::sort(records.begin(), records.end(),
            [](const ChunkRecord& a, const ChunkRecord& b) {
              return a.chunk < b.chunk;
            });
  return records;
}

QueueCounts WorkQueue::counts(double lease_ttl_seconds) const {
  QueueCounts counts;
  // Scan order matters: tasks, then leases, then done markers. A chunk
  // being claimed moves tasks -> leases atomically (no gap); one being
  // committed gains its done marker BEFORE its lease is removed, so
  // scanning done last can only over-count transiently, never lose a
  // chunk.
  counts.pending = pending_tasks().size();
  std::set<std::string> owners;
  for (const LeaseInfo& lease : leases()) {
    ++counts.leased;
    if (lease.age_seconds > lease_ttl_seconds) {
      ++counts.expired;
    } else if (!lease.owner.empty()) {
      owners.insert(lease.owner);
    }
  }
  counts.active_workers = owners.size();
  for (const ChunkRecord& record : completed()) {
    ++counts.done;
    counts.done_points += record.rows;
    counts.done_seconds += record.solve_seconds;
  }
  counts.failed = failures().size();
  return counts;
}

bool WorkQueue::is_done(std::size_t chunk) const {
  std::error_code ec;
  return fs::exists(done_path(chunk), ec);
}

bool WorkQueue::is_failed(std::size_t chunk) const {
  std::error_code ec;
  return fs::exists(failed_path(chunk), ec) && !is_done(chunk);
}

void WorkQueue::record_failure(const ChunkTask& task, const std::string& owner,
                               const std::string& error) const {
  // A terminal-failure marker must name an in-range chunk and carry the
  // solver's message — status/collect surface it verbatim, and an empty
  // error would read as a torn marker.
  ESCHED_DEBUG_CHECK(require(task.chunk < manifest_.num_chunks &&
                                 !error.empty(),
                             "WorkQueue::record_failure",
                             "failure marker without chunk/error"));
  if (is_done(task.chunk)) return;  // someone else's solve landed: not failed
  JsonValue record = JsonValue::make_object();
  record.set("chunk",
             JsonValue::make_number(static_cast<double>(task.chunk)));
  record.set("owner", JsonValue::make_string(owner));
  record.set("error", JsonValue::make_string(error));
  atomic_write_file(failed_path(task.chunk), record.dump() + "\n");
  dist_metrics().failed.add();
  if (TraceWriter* t = global_trace()) {
    t->event("chunk_failed", {{"chunk", task.chunk},
                              {"owner", owner},
                              {"error", error}});
  }
  // Drop the lease WITHOUT requeueing: the engine's solves are
  // deterministic, so every retry of this chunk would fail identically —
  // cycling it through the fleet would just crash worker after worker.
  std::error_code ec;
  fs::remove(lease_path(task.chunk), ec);
}

std::vector<FailureRecord> WorkQueue::failures() const {
  std::vector<FailureRecord> records;
  std::error_code ec;
  for (fs::directory_iterator it(directory_ + "/failed", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const auto chunk = parse_chunk_file_name(name, ".json");
    if (!chunk.has_value() || *chunk >= manifest_.num_chunks) continue;
    if (is_done(*chunk)) continue;  // a later (or racing) solve succeeded
    FailureRecord record;
    record.chunk = *chunk;
    if (const auto text = read_file(it->path().string())) {
      try {
        const JsonValue root = parse_json(*text, "failed");
        if (const JsonValue* owner = root.find("owner")) {
          record.owner = owner->as_string("failed.owner");
        }
        if (const JsonValue* error = root.find("error")) {
          record.error = error->as_string("failed.error");
        }
      } catch (const std::exception&) {
        // Torn marker: still a failure, just without the prose.
      }
    }
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.chunk < b.chunk;
            });
  return records;
}

LightCounts WorkQueue::light_counts() const {
  // Directory-name tallies only — no file reads or JSON parses. This is
  // what worker idle loops poll (possibly every --poll-ms across a
  // fleet); the full counts() below reads every record and is for
  // `esched status`.
  LightCounts counts;
  const auto tally = [&](const char* sub, const std::string& suffix,
                         std::set<std::size_t>* chunks) {
    std::size_t n = 0;
    std::error_code ec;
    for (fs::directory_iterator it(directory_ + sub, ec), end;
         !ec && it != end; it.increment(ec)) {
      const auto chunk =
          parse_chunk_file_name(it->path().filename().string(), suffix);
      if (!chunk.has_value() || *chunk >= manifest_.num_chunks) continue;
      ++n;
      if (chunks != nullptr) chunks->insert(*chunk);
    }
    return n;
  };
  std::set<std::size_t> done_chunks;
  counts.pending = tally("/tasks", ".json", nullptr);
  counts.leased = tally("/leases", ".json", nullptr);
  counts.done = tally("/done", ".json", &done_chunks);
  std::set<std::size_t> failed_chunks;
  tally("/failed", ".json", &failed_chunks);
  for (const std::size_t chunk : failed_chunks) {
    if (done_chunks.count(chunk) == 0) ++counts.failed;
  }
  return counts;
}

bool WorkQueue::claim(const ChunkTask& task, const std::string& owner) const {
  // Lease-state transition: only an in-range pending task may become a
  // lease. An out-of-range chunk here means a foreign or hand-edited task
  // file slipped past pending_tasks()'s filters.
  ESCHED_DEBUG_CHECK(require(
      task.chunk < manifest_.num_chunks && task.begin <= task.end &&
          task.end <= manifest_.total_points,
      "WorkQueue::claim", "task outside the manifest's chunk/point range"));
  DistMetrics& metrics = dist_metrics();
  const ScopedTimer timer(metrics.claim_seconds);
  // Freshen the task BEFORE the claiming rename: rename preserves mtime,
  // so a task that sat queued longer than the TTL (queue init'd Friday,
  // workers started Monday) would otherwise become a lease that a
  // concurrent reclaim scan could steal back in the instant before our
  // first heartbeat — leaving the chunk pending AND leased at once.
  touch_heartbeat(task_path(task.chunk));
  if (!atomic_move(task_path(task.chunk), lease_path(task.chunk))) {
    metrics.claim_lost.add();
    return false;  // lost the race
  }
  // Stamp the owner (also refreshing the heartbeat). The rewrite is
  // atomic, so a concurrent scan sees either the bare task body or the
  // stamped one, never a torn line.
  atomic_write_file(lease_path(task.chunk), task_json(task, owner));
  metrics.claimed.add();
  if (TraceWriter* t = global_trace()) {
    t->event("lease_claim", {{"chunk", task.chunk}, {"owner", owner}});
  }
  return true;
}

bool WorkQueue::heartbeat(std::size_t chunk) const {
  dist_metrics().heartbeats.add();
  return touch_heartbeat(lease_path(chunk));
}

std::size_t WorkQueue::reclaim_expired(double lease_ttl_seconds) const {
  std::size_t requeued = 0;
  for (const LeaseInfo& lease : leases()) {
    if (lease.age_seconds <= lease_ttl_seconds) continue;
    // Lease-state transition: only an expired, in-range lease may go back
    // to pending. leases() filters out-of-range names, so a violation here
    // means the scan or the expiry arithmetic regressed.
    ESCHED_DEBUG_CHECK(require(
        lease.chunk < manifest_.num_chunks &&
            lease.age_seconds > lease_ttl_seconds,
        "WorkQueue::reclaim_expired", "requeue of a live or foreign lease"));
    if (is_done(lease.chunk)) {
      // The owner died between its done marker and the lease removal —
      // the chunk is finished; just drop the stale lease.
      std::error_code ec;
      fs::remove(lease.path, ec);
      continue;
    }
    if (atomic_move(lease.path, task_path(lease.chunk))) {
      // Freshen the requeued task's mtime (rename kept the stale one), so
      // the next claim's lease starts with a live-looking heartbeat even
      // before claim()'s own touch lands.
      touch_heartbeat(task_path(lease.chunk));
      ++requeued;
      dist_metrics().requeued.add();
      if (TraceWriter* t = global_trace()) {
        t->event("lease_requeue",
                 {{"chunk", lease.chunk}, {"owner", lease.owner}});
      }
    }
  }
  return requeued;
}

void WorkQueue::discard_task(std::size_t chunk) const {
  std::error_code ec;
  fs::remove(task_path(chunk), ec);
}

std::size_t WorkQueue::sweep_stale_tmp() const {
  std::size_t removed = 0;
  for (const char* sub :
       {"/tasks", "/leases", "/results", "/done", "/failed", ""}) {
    removed += remove_stale_tmp_files(directory_ + sub);
  }
  return removed;
}

void WorkQueue::commit(const ChunkTask& task, const std::string& owner,
                       const std::vector<RunPoint>& points,
                       const std::vector<RunResult>& results,
                       const SweepStats& stats) const {
  ESCHED_CHECK(points.size() == task.end - task.begin &&
                   points.size() == results.size(),
               "chunk commit size mismatch");
  DistMetrics& metrics = dist_metrics();
  const ScopedTimer timer(metrics.commit_seconds, &metrics.committed);
  // Result files first (each published atomically, so a torn chunk CSV
  // can never sit under the final name), then the done marker, then the
  // lease. Dying between any two steps is recoverable: the lease expires
  // and the re-solve rewrites identical bytes.
  write_csv_report(result_csv_path(task.chunk), points, results,
                   manifest_.with_size_dist);
  write_json_report(result_json_path(task.chunk), points, results, &stats,
                    manifest_.with_size_dist);

  JsonValue record = JsonValue::make_object();
  record.set("chunk",
             JsonValue::make_number(static_cast<double>(task.chunk)));
  record.set("begin",
             JsonValue::make_number(static_cast<double>(task.begin)));
  record.set("end", JsonValue::make_number(static_cast<double>(task.end)));
  record.set("rows",
             JsonValue::make_number(static_cast<double>(points.size())));
  record.set("owner", JsonValue::make_string(owner));
  record.set("solve_seconds", JsonValue::make_number(stats.wall_seconds));
  atomic_write_file(done_path(task.chunk), record.dump() + "\n");
  // Commit-order invariant: once the done marker is published the chunk
  // must read as done (done_path and is_done agree), or status/collect
  // would re-solve a committed chunk forever.
  ESCHED_DEBUG_CHECK(require(is_done(task.chunk), "WorkQueue::commit",
                             "done marker published but is_done() is false"));

  std::error_code ec;
  fs::remove(lease_path(task.chunk), ec);  // best-effort; expiry cleans up
  if (TraceWriter* t = global_trace()) {
    t->event("chunk_commit", {{"chunk", task.chunk},
                              {"owner", owner},
                              {"rows", points.size()},
                              {"seconds", stats.wall_seconds}});
  }
}

const std::vector<RunPoint>& WorkQueue::expanded_points() {
  if (!expanded_.empty() || manifest_.total_points == 0) return expanded_;
  expanded_.reserve(manifest_.total_points);
  for (const Scenario& scenario : manifest_.scenarios) {
    const auto grid = scenario.expand();
    expanded_.insert(expanded_.end(), grid.begin(), grid.end());
  }
  ESCHED_CHECK(expanded_.size() == manifest_.total_points,
               "queue '" + directory_ +
                   "': manifest total_points does not match its scenarios' "
                   "expansion (was queue.json edited by hand?)");
  return expanded_;
}

std::vector<std::string> WorkQueue::collectable_paths(bool json) const {
  // Failed chunks first: they are terminal (deterministic solves retry
  // identically), so "wait for workers" would be the wrong advice.
  const std::vector<FailureRecord> failed = failures();
  if (!failed.empty()) {
    std::string what = "queue '" + directory_ + "' cannot be collected: " +
                       std::to_string(failed.size()) +
                       " chunk(s) failed permanently (chunk " +
                       std::to_string(failed.front().chunk) + ": " +
                       failed.front().error +
                       "); the sweep spec cannot complete as queued — fix "
                       "it and re-init";
    throw Error(what);
  }
  std::set<std::size_t> done_chunks;
  for (const ChunkRecord& record : completed()) {
    done_chunks.insert(record.chunk);
  }
  std::vector<std::size_t> unfinished;
  for (std::size_t c = 0; c < manifest_.num_chunks; ++c) {
    if (done_chunks.count(c) == 0) unfinished.push_back(c);
  }
  if (!unfinished.empty()) {
    std::string ids;
    for (std::size_t n = 0; n < unfinished.size() && n < 8; ++n) {
      if (n > 0) ids += ",";
      ids += std::to_string(unfinished[n]);
    }
    if (unfinished.size() > 8) {
      ids += ",... (+" + std::to_string(unfinished.size() - 8) + " more)";
    }
    throw Error("queue '" + directory_ + "' is incomplete: " +
                std::to_string(unfinished.size()) + " of " +
                std::to_string(manifest_.num_chunks) +
                " chunks unfinished (chunks " + ids +
                "); run `esched work --queue-dir " + directory_ +
                "` to finish them");
  }
  std::vector<std::string> paths;
  paths.reserve(manifest_.num_chunks);
  for (std::size_t c = 0; c < manifest_.num_chunks; ++c) {
    const std::string path = json ? result_json_path(c) : result_csv_path(c);
    std::error_code ec;
    ESCHED_CHECK(fs::exists(path, ec),
                 "queue '" + directory_ + "': chunk " + std::to_string(c) +
                     " is marked done but its result file '" + path +
                     "' is missing");
    paths.push_back(path);
  }
  return paths;
}

}  // namespace esched
