// The worker side of the distributed sweep queue: a claim -> solve ->
// commit loop over a queue directory (src/dist/work_queue). Any number of
// `esched work` processes — across machines sharing the filesystem — run
// this loop against one queue; chunk results are deterministic, so races
// (duplicate claims after a lease expiry, double commits) converge on
// identical bytes instead of corrupting the sweep.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace esched {

struct WorkerOptions {
  /// SweepRunner threads per chunk (0 = all hardware threads).
  int threads = 0;
  /// Shared persistent result cache (--cache-dir): workers re-solving a
  /// reclaimed chunk hit the crashed worker's stored points instead of
  /// recomputing them. Every worker process mmaps the directory's
  /// open-addressing table (engine/shm_cache), so a warm hit is one
  /// lock-free probe of shared memory; the table's publish-or-skip slot
  /// protocol mirrors the lease discipline — a worker killed mid-store
  /// wedges one slot (reclaimed by `cache gc`), never corrupts a result.
  std::string cache_dir;
  /// Lease owner stamp; empty = default_worker_owner() (host.pid).
  std::string owner;
  /// A lease whose heartbeat (bumped per completed row) is older than
  /// this is treated as crashed and requeued. Must comfortably exceed
  /// the slowest single point's solve time; positive (run_worker throws
  /// otherwise).
  double lease_ttl_seconds = 60.0;
  /// Poll interval while other workers hold the remaining leases; at
  /// least 1 (0 would rescan the queue without sleeping).
  int poll_ms = 500;
  /// Stop after this many chunks (0 = run until the queue drains).
  std::size_t max_chunks = 0;
  /// When false, exit as soon as no task is claimable instead of waiting
  /// for other workers' leases to finish or expire.
  bool wait_for_stragglers = true;
  /// Per-row progress lines (engine progress_callback) on `log`.
  bool progress = false;
  /// Crash-test hook (`esched work --abandon`): claim one chunk, then
  /// exit WITHOUT solving or releasing it — deterministically simulates
  /// a worker dying mid-chunk so tests/CI can exercise lease expiry and
  /// requeue without racing a kill signal.
  bool abandon = false;
  /// Worker chatter (claims, commits, requeues); nullptr = silent.
  std::ostream* log = nullptr;
  /// When nonempty, publish live metrics snapshots to
  /// `<telemetry_dir>/<owner>.metrics.json` every
  /// telemetry_interval_seconds (plus a final snapshot at exit) for
  /// `esched status` to merge into the fleet view. Observation only.
  std::string telemetry_dir;
  double telemetry_interval_seconds = 2.0;
};

struct WorkerSummary {
  std::size_t chunks_solved = 0;
  std::size_t points_solved = 0;
  std::size_t chunks_requeued = 0;   ///< expired leases this worker requeued
  std::size_t chunks_abandoned = 0;  ///< abandon-hook claims left leased
  /// Chunks THIS worker marked terminally failed (their solve threw —
  /// deterministic, so they are not requeued; see WorkQueue failures()).
  std::size_t chunks_failed = 0;
  /// Failure markers on the whole queue at exit (any worker's).
  std::size_t queue_failed = 0;
  /// True when the loop exited because every chunk is committed (rather
  /// than max_chunks, abandon, a no-wait idle exit, or failures).
  bool queue_drained = false;
  double wall_seconds = 0.0;
};

/// "<hostname>.<pid>" — distinct per worker process on a shared
/// filesystem.
std::string default_worker_owner();

/// Runs the worker loop against the queue at `queue_dir` until it drains
/// (or an options limit stops it). Throws esched::Error when the
/// directory is not a queue, a solve fails, or the queue is broken
/// (chunks that are neither pending, leased, nor done).
WorkerSummary run_worker(const std::string& queue_dir,
                         const WorkerOptions& options);

}  // namespace esched
