// The distributed sweep queue: a dependency-free, filesystem-backed work
// queue that lets many worker processes — on one machine or across
// machines sharing a filesystem — chew through one scenario sweep
// cooperatively, built directly on the engine's determinism guarantees
// (deterministic per-point seeding, byte-stable CSV reports, mergeable
// shards).
//
// On-disk layout of a queue directory Q:
//
//   Q/queue.json            manifest: embedded scenario specs, chunk size,
//                           total points, report schema flag. Written LAST
//                           during init (atomic rename), so a concurrent
//                           worker sees either no queue or a complete one.
//   Q/tasks/chunk-NNNNNN.json
//                           one pending work unit: a contiguous [begin,
//                           end) slice of the combined expanded grid.
//   Q/leases/chunk-NNNNNN.json
//                           a claimed unit. Claiming IS the atomic rename
//                           tasks/ -> leases/ (src/dist/lease). The owner
//                           is stamped inside; the heartbeat is the file's
//                           mtime, bumped as rows complete. Leases whose
//                           heartbeat exceeds the TTL are reclaimed by
//                           renaming back into tasks/.
//   Q/results/chunk-NNNNNN.csv (+ .json)
//                           the chunk's report slice, written via temp +
//                           atomic rename — a torn result file can never
//                           appear under this name. Chunk CSVs carry the
//                           manifest's schema flag, so `esched collect`
//                           (merge_csv_reports in chunk order) reproduces
//                           the unsharded `esched run` CSV byte for byte.
//   Q/done/chunk-NNNNNN.json
//                           completion record (rows, owner, solve wall
//                           time) — the commit marker `status` and
//                           `collect` trust, written after the result.
//   Q/failed/chunk-NNNNNN.json
//                           terminal-failure marker (owner + solver error
//                           text) for a chunk whose solve THREW. Solves
//                           are deterministic, so such a chunk is not
//                           requeued — cycling it would crash worker
//                           after worker; `status` reports it and
//                           `collect` refuses with the recorded error.
//
// Crash safety falls out of the commit order (result, done marker, lease
// removal — each an atomic rename): a worker that dies mid-chunk leaves a
// lease that expires and is requeued; one that dies mid-commit leaves
// either nothing (re-solve) or a complete result (the re-solve rewrites
// identical bytes, because chunk results are deterministic). Double
// solves after a reclaim race are therefore harmless, never wrong.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dist/lease.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"

namespace esched {

/// The queue's immutable description, persisted as Q/queue.json. The
/// scenario specs are EMBEDDED (scenario_to_json round-trips expansion
/// exactly), so workers need only the queue directory — not the spec
/// files or built-in names the initiator used.
struct QueueManifest {
  std::size_t chunk_size = 0;
  std::size_t total_points = 0;
  std::size_t num_chunks = 0;
  /// Combined report schema flag (report_has_size_dists over the FULL
  /// grids): every chunk CSV/JSON is written with it, so all chunks share
  /// one header whatever slice they cover.
  bool with_size_dist = false;
  std::vector<Scenario> scenarios;
};

/// One work unit: chunk `chunk` covers rows [begin, end) of the combined
/// expanded grid (scenarios concatenated in manifest order).
struct ChunkTask {
  std::size_t chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// A chunk's completion record (Q/done/chunk-N.json).
struct ChunkRecord {
  std::size_t chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t rows = 0;
  std::string owner;
  double solve_seconds = 0.0;  ///< the committing worker's solve wall time
  /// Age of the done record (now - its mtime) at scan time: how long ago
  /// the chunk committed. What `esched status --watch` computes rolling
  /// throughput and ETA from.
  double age_seconds = 0.0;
};

/// A chunk's terminal-failure marker (Q/failed/chunk-N.json).
struct FailureRecord {
  std::size_t chunk = 0;
  std::string owner;
  std::string error;  ///< the solver's message (empty when the marker tore)
};

/// One `esched status` snapshot. Scan order (tasks, then leases, then
/// done markers) guarantees a chunk mid-commit is seen somewhere; the
/// counts can still be momentarily stale while workers run — they are a
/// progress report, not a barrier.
struct QueueCounts {
  std::size_t pending = 0;
  std::size_t leased = 0;
  std::size_t expired = 0;  ///< of leased: heartbeat older than the TTL
  std::size_t done = 0;
  std::size_t failed = 0;   ///< terminal failures (excluding done chunks)
  std::size_t done_points = 0;
  double done_seconds = 0.0;     ///< sum of committed solve wall times
  std::size_t active_workers = 0;  ///< distinct owners on live leases
};

/// Chunk-state tallies derived from directory NAMES alone — no file
/// reads, no JSON parsing. What worker idle loops poll every --poll-ms
/// (a fleet polling the full counts() would re-parse every done record
/// twice a second); `esched status` uses counts() for owners and ETA.
struct LightCounts {
  std::size_t pending = 0;
  std::size_t leased = 0;
  std::size_t done = 0;
  std::size_t failed = 0;  ///< excluding done chunks
};

/// Handle on a queue directory. Opening requires an existing manifest;
/// init() creates one. All scanning methods tolerate torn or foreign
/// files (a crashed writer's partial JSON is skipped, never fatal) —
/// atomic renames mean torn files can only be stray cruft, not protocol
/// state. Instances are cheap and single-threaded; concurrency happens
/// between processes through the filesystem, not through this object.
class WorkQueue {
 public:
  /// Opens an existing queue (throws esched::Error when `directory` has
  /// no readable manifest — including the mid-init window).
  explicit WorkQueue(std::string directory);

  /// Creates and populates a queue for `sweep` split into chunks of
  /// `chunk_size` points: writes every task file, then the manifest last.
  /// Throws when the directory already holds a queue.
  static WorkQueue init(const std::string& directory, const LoadedSweep& sweep,
                        std::size_t chunk_size);

  const QueueManifest& manifest() const { return manifest_; }
  const std::string& directory() const { return directory_; }

  std::string task_path(std::size_t chunk) const;
  std::string lease_path(std::size_t chunk) const;
  std::string result_csv_path(std::size_t chunk) const;
  std::string result_json_path(std::size_t chunk) const;
  std::string done_path(std::size_t chunk) const;
  std::string failed_path(std::size_t chunk) const;

  /// Pending work units, sorted by chunk index. Torn/foreign files and
  /// out-of-range chunk ids are skipped.
  std::vector<ChunkTask> pending_tasks() const;

  /// Live leases (owner empty when the stamp is unreadable — still
  /// reclaimable by age).
  std::vector<LeaseInfo> leases() const;

  /// Parsed completion records, sorted by chunk. Torn records are
  /// skipped — their chunks simply read as unfinished and get re-solved.
  std::vector<ChunkRecord> completed() const;

  QueueCounts counts(double lease_ttl_seconds) const;
  LightCounts light_counts() const;

  bool is_done(std::size_t chunk) const;
  bool is_failed(std::size_t chunk) const;

  /// Marks a chunk whose solve threw as terminally failed (no-op when a
  /// racing worker already committed it) and drops the lease without
  /// requeueing — deterministic solves retry identically, so cycling the
  /// chunk through the fleet would just crash every worker in turn.
  void record_failure(const ChunkTask& task, const std::string& owner,
                      const std::string& error) const;

  /// Parsed failure markers, sorted by chunk, excluding chunks that a
  /// racing worker nevertheless completed.
  std::vector<FailureRecord> failures() const;

  /// Tries to claim `task` by the atomic tasks/ -> leases/ rename; true
  /// when this caller won. On success the lease is stamped with `owner`
  /// (atomic rewrite), which also sets the first heartbeat.
  bool claim(const ChunkTask& task, const std::string& owner) const;

  /// Bumps the heartbeat of a held lease; false when the lease is gone
  /// (reclaimed out from under the owner).
  bool heartbeat(std::size_t chunk) const;

  /// Requeues every lease whose heartbeat is older than the TTL (crashed
  /// workers); leases of already-done chunks are dropped instead. Returns
  /// the number of chunks requeued.
  std::size_t reclaim_expired(double lease_ttl_seconds) const;

  /// Removes a stray task file whose chunk already committed (possible
  /// after a reclaim/commit race). No-op when absent.
  void discard_task(std::size_t chunk) const;

  /// Sweeps up temp files orphaned by crashed writers across the queue's
  /// subdirectories, once stale (common/atomic_file's
  /// remove_stale_tmp_files: a younger one may belong to a live writer
  /// mid-publish). Workers run this on startup and
  /// `esched collect` before merging, so tolerated crashes do not leak
  /// disk forever. Returns the number of files removed.
  std::size_t sweep_stale_tmp() const;

  /// Commits a solved chunk: result CSV and JSON, each published
  /// atomically, then the done record, then the lease is dropped. `results`
  /// must cover exactly [task.begin, task.end) of the combined grid.
  void commit(const ChunkTask& task, const std::string& owner,
              const std::vector<RunPoint>& points,
              const std::vector<RunResult>& results,
              const SweepStats& stats) const;

  /// The combined expanded grid (manifest scenarios concatenated),
  /// computed once and cached. Throws when the expansion disagrees with
  /// the manifest's recorded total — a hand-edited or version-skewed
  /// queue must fail loudly, not solve the wrong rows.
  const std::vector<RunPoint>& expanded_points();

  /// Validates completeness for `esched collect` and returns the result
  /// file paths in chunk order (the merge order that reproduces the
  /// unsharded report). Throws esched::Error carrying the first failure
  /// marker's error when any chunk failed terminally, naming the
  /// unfinished chunks when any chunk lacks a done record, and the
  /// affected chunk when a done record's result file is missing.
  std::vector<std::string> collectable_paths(bool json) const;

 private:
  WorkQueue() = default;

  std::string directory_;
  QueueManifest manifest_;
  std::vector<RunPoint> expanded_;  ///< lazy cache for expanded_points()
};

}  // namespace esched
