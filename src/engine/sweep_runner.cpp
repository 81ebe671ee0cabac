#include "engine/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "engine/shm_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {

namespace {

/// Sweep-level observability handles, resolved once (registry lookups
/// take a mutex; these updates must stay off the workers' lock path).
struct RunnerMetrics {
  Counter& points_total;       ///< sweep.points.total
  Counter& points_solved;      ///< sweep.points.solved (fresh solves)
  Counter& points_failed;      ///< sweep.points.failed
  Counter& disk_hits;          ///< sweep.disk.hits
  Counter& dup_points;         ///< sweep.dup.points (intra-call repeats)
  LogHistogram& point_seconds; ///< sweep.point.seconds (all backends)
  LogHistogram& queue_wait;    ///< sweep.queue_wait.seconds
  LogHistogram& utilization;   ///< sweep.thread.utilization (busy fraction)
  LogHistogram& run_seconds;   ///< sweep.run.seconds (per run() call)
};

RunnerMetrics& runner_metrics() {
  static RunnerMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return RunnerMetrics{m.counter("sweep.points.total"),
                         m.counter("sweep.points.solved"),
                         m.counter("sweep.points.failed"),
                         m.counter("sweep.disk.hits"),
                         m.counter("sweep.dup.points"),
                         m.histogram("sweep.point.seconds"),
                         m.histogram("sweep.queue_wait.seconds"),
                         m.histogram("sweep.thread.utilization"),
                         m.histogram("sweep.run.seconds")};
  }();
  return metrics;
}

/// The copy of a result handed to callers for cache-served points: honest
/// provenance (from_cache) and ~zero cost (solve_seconds), so ETA and
/// cache-effectiveness arithmetic downstream never double-counts the
/// original solve's wall time. The cache directory keeps real timings.
RunResult cached_copy(const RunResult& result) {
  RunResult copy = result;
  copy.from_cache = true;
  copy.solve_seconds = 0.0;
  return copy;
}

/// Below this many points run()'s bookkeeping phases (key building, cache
/// probes) stay on the calling thread: starting threads would cost more
/// than the work, and small sweeps keep their single-threaded path.
constexpr std::size_t kParallelBookkeepingMin = 512;

/// The one thread pool of SweepRunner::run: runs `worker` on `threads`
/// fresh threads and joins them, or on the calling thread when `threads`
/// is at most 1. `worker` must not throw. jthreads join on every exit,
/// so a failed thread start still waits for the ones already running.
template <typename Worker>
void run_on_pool(int threads, const Worker& worker) {
  if (threads <= 1) {
    worker();
    return;
  }
  std::vector<std::jthread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
}

/// Calls body(i) once for every i in [0, count), on up to `threads` pool
/// threads claiming chunks off an atomic index — inline below
/// kParallelBookkeepingMin. A body that writes only slot i needs no lock.
/// The first exception a body throws is rethrown after the join.
template <typename Body>
void parallel_for(std::size_t count, int threads, const Body& body) {
  constexpr std::size_t kChunk = 64;
  if (count < kParallelBookkeepingMin) threads = 1;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  run_on_pool(threads, [&] {
    for (;;) {
      const std::size_t begin = next.fetch_add(kChunk);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + kChunk, count);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        return;
      }
    }
  });
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace

SweepRunner::SweepRunner(int num_threads) : num_threads_(num_threads) {
  ESCHED_CHECK(num_threads >= 0, "thread count must be >= 0");
  if (num_threads_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads_ = hw == 0 ? 1 : static_cast<int>(hw);
  }
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::set_cache_dir(const std::string& directory) {
  disk_cache_ = std::make_unique<TieredResultCache>(directory);
}

std::vector<RunResult> SweepRunner::run(const std::vector<RunPoint>& points,
                                        SweepStats* stats,
                                        const RowCallback& on_row) {
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  RunnerMetrics& metrics = runner_metrics();
  metrics.points_total.add(points.size());
  if (TraceWriter* t = global_trace()) {
    t->event("sweep_start",
             {{"points", points.size()}, {"threads", num_threads_}});
  }
  // The sweep span nests under an open chunk span when a dist worker is
  // driving this call (same thread), and is a root otherwise. Point spans
  // solved on pool threads pass this id explicitly — a fresh thread has an
  // empty span stack, so auto-parenting cannot reach across.
  const TraceSpan sweep_span("sweep", {{"points", points.size()},
                                       {"threads", num_threads_}});
  const std::uint64_t sweep_span_id = sweep_span.id();

  // One result slot per input point: hits land in it during the probe and
  // assembly phases, fresh solves during the fan-out, repeats last.
  std::vector<RunResult> results(points.size());

  // Phase 1, on the pool: every point's cache key (cache_key() is pure).
  std::vector<std::string> keys(points.size());
  parallel_for(points.size(), num_threads_,
               [&](std::size_t n) { keys[n] = points[n].cache_key(); });

  // Phase 2, serial: deduplicate. first_of[n] is the first index holding
  // n's key; next_same[n] chains n to the next index holding it (kNone
  // ends the chain), so a point repeated across figure axes solves once
  // and its one solve can be handed to every repeat.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> firsts;  // first index of each distinct key
  std::vector<std::size_t> first_of(points.size());
  std::vector<std::size_t> next_same(points.size(), kNone);
  {
    std::unordered_map<std::string_view, std::size_t> latest;
    latest.reserve(points.size());
    for (std::size_t n = 0; n < points.size(); ++n) {
      const auto [it, inserted] = latest.try_emplace(keys[n], n);
      if (inserted) {
        firsts.push_back(n);
        first_of[n] = n;
      } else {
        next_same[it->second] = n;
        first_of[n] = first_of[it->second];
        it->second = n;
      }
    }
  }

  // Phase 3, on the pool: with a cache directory, load each distinct key
  // once. A hit lands in the result slot of the key's first index. Bytes,
  // not vector<bool>: workers set distinct elements concurrently.
  std::vector<unsigned char> loaded(points.size(), 0);
  if (disk_cache_ != nullptr) {
    parallel_for(firsts.size(), num_threads_, [&](std::size_t u) {
      const std::size_t n = firsts[u];
      if (auto hit = disk_cache_->load(keys[n])) {
        results[n] = *hit;
        loaded[n] = 1;
      }
    });
  }

  // Phase 4, serial and in input order: points resolvable now (disk hits
  // and their repeats) fire on_row immediately — delivered as cached_copy,
  // since their solve cost was paid earlier; the first index of each
  // unresolved key becomes a job, and its repeats wait for that one solve
  // to land. A loaded key counts as a disk hit once; every repeat of a key
  // counts as a duplicate, whatever its first index's source.
  std::vector<std::size_t> jobs;  // indices into `points` to solve now
  std::size_t disk_hits = 0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    const std::size_t first = first_of[n];
    if (n != first) metrics.dup_points.add();
    if (loaded[first] == 0) {
      if (n == first) jobs.push_back(n);
      continue;
    }
    if (n == first) {
      ++disk_hits;
      metrics.disk_hits.add();
      if (TraceWriter* t = global_trace()) {
        t->event("disk_hit", {{"index", n}});
      }
    } else if (TraceWriter* t = global_trace()) {
      t->event("cache_hit", {{"index", n}});
    }
    results[n] = cached_copy(results[first]);
    if (on_row != nullptr) on_row(n, points[n], results[n]);
  }

  // Phase 5: fan the jobs over the pool via an atomic work index. Each
  // point's solve is independent and pure, so completion order cannot
  // affect the results. A solve writes only its own index's result slot.
  std::atomic<std::size_t> next_job{0};
  std::mutex error_mutex;
  std::string first_error;
  const auto record_error = [&](const std::string& key, const char* what) {
    metrics.points_failed.add();
    if (TraceWriter* t = global_trace()) {
      t->event("point_error", {{"key", key}, {"error", what}});
    }
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.empty()) {
      first_error = "sweep point '" + key + "' failed: " + what;
    }
  };
  std::mutex callback_mutex;
  bool callback_failed = false;  // guarded by callback_mutex
  const auto store = [&](std::size_t n, const RunResult& result) {
    results[n] = result;
    if (disk_cache_ != nullptr) disk_cache_->store(keys[n], result);
    metrics.points_solved.add();
    metrics.point_seconds.record(result.solve_seconds);
    if (TraceWriter* t = global_trace()) {
      t->event("point_done",
               {{"index", n},
                {"solver", solver_name(points[n].solver)},
                {"policy", points[n].policy},
                {"seconds", result.solve_seconds}});
    }
    if (on_row == nullptr) return;
    // Deliver to every input index holding this key, serially: the
    // mutex both orders concurrent deliveries and publishes them, so the
    // callback can be lock-free. A throwing callback (e.g. a streaming
    // resume mismatch) fails the whole run with its own message — and
    // ends all further delivery, so a consumer that rejected one row is
    // never handed more — while workers keep solving (and storing).
    // The solving index itself (always the key's first index) sees the
    // fresh result; duplicate indices see a cached_copy, matching the
    // provenance reported on the returned vector.
    std::lock_guard<std::mutex> lock(callback_mutex);
    if (callback_failed) return;
    try {
      on_row(n, points[n], result);
      for (std::size_t m = next_same[n]; m != kNone; m = next_same[m]) {
        on_row(m, points[m], cached_copy(result));
      }
    } catch (const std::exception& e) {
      callback_failed = true;
      std::lock_guard<std::mutex> error_lock(error_mutex);
      if (first_error.empty()) {
        first_error = std::string("row callback failed: ") + e.what();
      }
    }
  };
  const auto pool_start = std::chrono::steady_clock::now();
  const auto worker = [&] {
    const auto thread_start = std::chrono::steady_clock::now();
    double busy_seconds = 0.0;
    bool worked = false;
    for (;;) {
      const std::size_t job = next_job.fetch_add(1);
      if (job >= jobs.size()) break;
      // Time from pool start to pickup: how long this job sat queued
      // behind other work.
      metrics.queue_wait.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        pool_start)
              .count());
      worked = true;
      const auto job_start = std::chrono::steady_clock::now();
      const std::size_t n = jobs[job];
      try {
        const TraceSpan point_span(
            "point",
            {{"index", n},
             {"solver", solver_name(points[n].solver)},
             {"policy", points[n].policy}},
            sweep_span_id);
        const RunResult result = [&] {
          // Inner solve span: separates pure solver time from the
          // store/deliver tail the point span also covers.
          const TraceSpan solve_span(
              "solve", {{"solver", solver_name(points[n].solver)}});
          return dispatch_run(points[n]);
        }();
        store(n, result);
      } catch (const std::exception& e) {
        record_error(keys[n], e.what());
      }
      busy_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job_start)
              .count();
    }
    // Busy fraction of this worker's lifetime — only for threads that
    // actually got work, so a late-starting thread on a drained queue
    // does not drag the distribution toward zero.
    if (worked) {
      const double alive =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        thread_start)
              .count();
      metrics.utilization.record(alive > 0.0 ? busy_seconds / alive : 1.0);
    }
  };
  const int pool_size = static_cast<int>(std::min<std::size_t>(
      jobs.size(), static_cast<std::size_t>(num_threads_)));
  run_on_pool(pool_size, worker);
  if (!first_error.empty()) throw Error(first_error);

  // The first solve of a point this call is fresh; its repeats — like
  // disk loads — are cache hits and report ~zero solve_seconds: the
  // recorded time was paid by the original solve, and repeating it would
  // inflate cache-effectiveness numbers and ETAs downstream.
  double solve_seconds_total = 0.0;
  for (const std::size_t n : jobs) {
    solve_seconds_total += results[n].solve_seconds;
    for (std::size_t m = next_same[n]; m != kNone; m = next_same[m]) {
      results[m] = cached_copy(results[n]);
    }
  }
  const std::size_t cache_hits = points.size() - jobs.size();

  const double wall_seconds = seconds_since_start();
  metrics.run_seconds.record(wall_seconds);
  if (TraceWriter* t = global_trace()) {
    t->event("sweep_done", {{"points", points.size()},
                            {"solved", jobs.size()},
                            {"cache_hits", cache_hits},
                            {"wall_seconds", wall_seconds}});
  }
  if (stats != nullptr) {
    stats->total_points = points.size();
    stats->solved_points = jobs.size();
    stats->cache_hits = cache_hits;
    stats->disk_hits = disk_hits;
    stats->threads_used = pool_size;
    stats->wall_seconds = wall_seconds;
    stats->solve_seconds_total = solve_seconds_total;
  }
  return results;
}

}  // namespace esched
