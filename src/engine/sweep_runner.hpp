// Parallel sweep execution with in-call deduplication.
//
// The runner takes a flat list of RunPoints (typically Scenario::expand()),
// deduplicates them by cache key, solves the missing unique points on a
// std::thread worker pool, and returns results in input order. run() goes
// through five phases:
//   1. build every point's cache key (pool);
//   2. deduplicate the keys (serial);
//   3. with a cache directory, load each distinct key once (pool);
//   4. in input order, deliver hits to on_row, bump the hit/duplicate
//      counters and list the jobs (serial);
//   5. solve the jobs (pool), one point per job, each solve writing its own
//      result slot.
// Phases 1 and 3 stay on the calling thread when they have fewer than 512
// points (keys) to do, where starting threads costs more than the work.
//
// Within one run() call a repeated point (e.g. one shared by two axes of a
// grid) solves once. The only result cache across calls, processes and CLI
// invocations is the optional persistent one (set_cache_dir); without it
// every run() call solves its points afresh. Every point is its own job
// through dispatch_run, whatever its backend, so the policies of one exact
// chain topology solve in parallel like any other points. Results are
// deterministic in the thread count: each point's solve is pure and its
// RNG seed derives from its cache key, never from scheduling order.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/solver_dispatch.hpp"

namespace esched {

class TieredResultCache;

/// Bookkeeping for one run() call.
struct SweepStats {
  std::size_t total_points = 0;   ///< points requested
  std::size_t solved_points = 0;  ///< unique points actually solved now
  std::size_t cache_hits = 0;     ///< points not solved now (total - solved)
  std::size_t disk_hits = 0;      ///< of cache_hits, loaded from --cache-dir
  double wall_seconds = 0.0;      ///< end-to-end wall time of run()
  /// Summed wall time of the fresh solves only (cache hits contribute 0),
  /// i.e. the compute this run would have cost single-threaded without a
  /// cache — the honest numerator for cache-effectiveness and ETA math.
  double solve_seconds_total = 0.0;
  int threads_used = 0;
};

/// Row-completion callback: invoked once per input point as soon as its
/// result is available, with the point's original index into the `points`
/// argument. Invocations are serialized (the runner holds an internal
/// mutex around every call), so the callback itself needs no locking, but
/// they arrive in completion order, not input order — streaming consumers
/// reorder (see StreamingCsvReport). Disk hits and their repeats fire
/// before any worker starts solving — from the calling thread, in input
/// order, once the keys are built and probed (phase 4 above); duplicates
/// of an in-flight point fire when that point's one solve lands. Provenance is
/// honest per delivery: a freshly solved point arrives with from_cache =
/// false and its real solve_seconds, while disk hits and duplicates arrive
/// with from_cache = true and solve_seconds = 0 (their cost was paid by the
/// original solve), matching the returned vector.
using RowCallback = std::function<void(
    std::size_t index, const RunPoint& point, const RunResult& result)>;

/// Executes RunPoints on a worker pool of `num_threads` threads
/// (0 = std::thread::hardware_concurrency()).
class SweepRunner {
 public:
  explicit SweepRunner(int num_threads = 0);
  ~SweepRunner();

  /// Solves every point (consulting/filling the cache directory, if set)
  /// and returns results in input order. `from_cache` is set (and
  /// solve_seconds zeroed) on results that were loaded from the cache
  /// directory and on intra-call duplicates, which solve once. If any
  /// point's solve throws, the first error is re-thrown after all workers
  /// join; successfully solved points are already stored in the cache
  /// directory (if set) and delivered to `on_row`, which is what makes an
  /// interrupted streaming run resumable.
  std::vector<RunResult> run(const std::vector<RunPoint>& points,
                             SweepStats* stats = nullptr,
                             const RowCallback& on_row = nullptr);

  /// Attaches a persistent cache directory (created if missing): every
  /// later run() consults it before solving, and writes fresh solves back.
  /// The directory is a two-tier cache (engine/shm_cache): an mmap'd
  /// open-addressing table serves hits with a lock-free probe, per-entry
  /// files hold what the table cannot. Throws when the directory cannot be
  /// created.
  void set_cache_dir(const std::string& directory);

  int num_threads() const { return num_threads_; }

 private:
  int num_threads_;
  std::unique_ptr<TieredResultCache> disk_cache_;
};

}  // namespace esched
