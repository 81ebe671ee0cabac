#include "dist/worker.hpp"

#include <chrono>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "dist/work_queue.hpp"
#include "engine/report.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace esched {

namespace {

/// Worker log lines go to a stream shared with the runner's progress
/// callback and, under a multi-process fleet, with sibling workers'
/// stderr: assemble each line fully and emit it with ONE insertion so
/// concurrent writers cannot interleave torn lines.
void log_line(std::ostream* log, const std::string& line) {
  if (log == nullptr) return;
  *log << line + "\n";
  log->flush();
}

}  // namespace

std::string default_worker_owner() {
  std::string host = "worker";
#if __has_include(<unistd.h>)
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    host = buf;
  }
  return host + "." + std::to_string(static_cast<long>(::getpid()));
#else
  return host;
#endif
}

namespace {

/// Solves one claimed chunk and commits it. Every completed row bumps the
/// lease heartbeat, so the TTL needs to cover single points, not whole
/// chunks.
void solve_chunk(WorkQueue& queue, const ChunkTask& task,
                 const std::string& owner, SweepRunner& runner,
                 const WorkerOptions& options) {
  // The chunk span covers claim-to-commit; the runner's sweep span nests
  // under it automatically (same thread).
  const TraceSpan chunk_span("chunk",
                             {{"chunk", task.chunk}, {"owner", owner}});
  const std::vector<RunPoint>& all = queue.expanded_points();
  const std::vector<RunPoint> slice(
      all.begin() + static_cast<std::ptrdiff_t>(task.begin),
      all.begin() + static_cast<std::ptrdiff_t>(task.end));
  RowCallback progress;
  if (options.progress && options.log != nullptr) {
    progress = progress_callback(queue.manifest().total_points, *options.log,
                                 task.begin);
  }
  const RowCallback on_row = [&queue, &task, &progress](
                                 std::size_t index, const RunPoint& point,
                                 const RunResult& result) {
    // A false return means the lease was reclaimed out from under us
    // (heartbeat stalled past the TTL on a slow point). Keep solving:
    // the commit below writes bytes identical to the reclaimer's.
    queue.heartbeat(task.chunk);
    if (progress) progress(index, point, result);
  };
  SweepStats stats;
  const std::vector<RunResult> results = runner.run(slice, &stats, on_row);
  queue.commit(task, owner, slice, results, stats);
}

}  // namespace

WorkerSummary run_worker(const std::string& queue_dir,
                         const WorkerOptions& options) {
  if (options.poll_ms < 1) {
    throw Error("worker poll interval must be at least 1 ms, got " +
                std::to_string(options.poll_ms));
  }
  // With a TTL of 0 every worker would requeue every other worker's live
  // lease on its next loop, and the fleet would solve chunks over and over.
  if (!(options.lease_ttl_seconds > 0.0)) {
    throw Error("worker lease TTL (--lease-ttl) must be positive");
  }
  const auto start = std::chrono::steady_clock::now();
  WorkQueue queue(queue_dir);
  const QueueManifest& manifest = queue.manifest();
  const std::string owner =
      options.owner.empty() ? default_worker_owner() : options.owner;
  queue.expanded_points();  // expand (and validate) once, before claiming
  if (TraceWriter* t = global_trace()) {
    t->event("worker_start",
             {{"owner", owner}, {"queue", queue_dir},
              {"chunks", manifest.num_chunks}});
  }
  // Root of this process's span tree; chunk spans nest under it.
  const TraceSpan worker_span("worker",
                              {{"owner", owner}, {"queue", queue_dir}});
  // Live fleet telemetry for `esched status`: periodic snapshots for the
  // worker's lifetime, a final one when this scope unwinds.
  std::unique_ptr<TelemetryPublisher> telemetry;
  if (!options.telemetry_dir.empty()) {
    TelemetryOptions telemetry_options;
    telemetry_options.dir = options.telemetry_dir;
    telemetry_options.owner = owner;
    telemetry_options.interval_seconds = options.telemetry_interval_seconds;
    telemetry = std::make_unique<TelemetryPublisher>(
        std::move(telemetry_options));
  }

  queue.sweep_stale_tmp();  // crashed writers' orphans, once per startup

  SweepRunner runner(options.threads);
  if (!options.cache_dir.empty()) runner.set_cache_dir(options.cache_dir);

  WorkerSummary summary;
  std::ostream* log = options.log;
  // The abandon hook simulates ONE crash by default; an explicit
  // max_chunks widens it (e.g. a test wedging several leases at once).
  // An abandoning worker also never waits for stragglers — idling until
  // its own wedged leases expire would just re-abandon them.
  const std::size_t max_chunks =
      options.abandon && options.max_chunks == 0 ? 1 : options.max_chunks;
  const bool wait_for_stragglers =
      options.wait_for_stragglers && !options.abandon;
  // Consecutive idle scans with nothing pending, nothing leased, and the
  // queue not drained: transient (between two non-atomic scans) once or
  // twice, a lost-files bug every time.
  int broken_scans = 0;
  for (;;) {
    if (max_chunks > 0 &&
        summary.chunks_solved + summary.chunks_abandoned >= max_chunks) {
      break;
    }
    summary.chunks_requeued += queue.reclaim_expired(options.lease_ttl_seconds);

    // One directory scan, then claim down the whole sorted list — a
    // per-chunk rescan would make draining an N-chunk queue O(N^2) task
    // reads per worker. The per-task is_done() check supplies the
    // freshness a rescan would: a chunk that committed (or was claimed)
    // since the scan is skipped or loses its claim race cleanly.
    bool claimed = false;
    for (const ChunkTask& task : queue.pending_tasks()) {
      if (max_chunks > 0 &&
          summary.chunks_solved + summary.chunks_abandoned >= max_chunks) {
        break;
      }
      if (queue.is_done(task.chunk) || queue.is_failed(task.chunk)) {
        // A reclaim/commit race left a stray task behind a finished (or
        // terminally failed) chunk; sweep it up instead of solving it
        // again.
        queue.discard_task(task.chunk);
        continue;
      }
      if (!queue.claim(task, owner)) continue;  // lost the race; next task
      claimed = true;
      if (options.abandon) {
        ++summary.chunks_abandoned;
        log_line(log, "worker " + owner + ": abandoned chunk " +
                          std::to_string(task.chunk) +
                          " (lease left to expire)");
        // Rescan via the outer loop; its max_chunks check ends the run
        // once enough leases are wedged (one by default).
        break;
      }
      try {
        solve_chunk(queue, task, owner, runner, options);
      } catch (const std::exception& e) {
        // A throwing solve is deterministic — a requeue would crash the
        // next worker identically and cycle the chunk through the fleet
        // forever. Mark it terminally failed and keep working; status
        // and collect surface the recorded error.
        queue.record_failure(task, owner, e.what());
        ++summary.chunks_failed;
        log_line(log, "worker " + owner + ": chunk " +
                          std::to_string(task.chunk) +
                          " FAILED permanently: " + e.what());
        continue;
      }
      ++summary.chunks_solved;
      summary.points_solved += task.end - task.begin;
      log_line(log, "worker " + owner + ": chunk " +
                        std::to_string(task.chunk) + " done (" +
                        std::to_string(task.end - task.begin) + " points)");
    }
    if (claimed) {
      broken_scans = 0;
      continue;
    }

    // Idle path: name-only directory tallies — polled every poll_ms by
    // every waiting worker, so no per-record file reads here.
    const LightCounts counts = queue.light_counts();
    summary.queue_failed = counts.failed;
    if (counts.done + counts.failed >= manifest.num_chunks) {
      summary.queue_drained = counts.failed == 0;
      break;
    }
    if (counts.pending == 0 && counts.leased == 0) {
      if (++broken_scans >= 5) {
        throw Error(
            "queue '" + queue_dir + "' is broken: " +
            std::to_string(manifest.num_chunks - counts.done -
                           counts.failed) +
            " chunks are neither pending, leased, done, nor failed (task "
            "files lost?)");
      }
    } else {
      broken_scans = 0;
      if (!wait_for_stragglers) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (log != nullptr) {
    std::ostringstream line;
    line << "worker " << owner << ": " << summary.chunks_solved
         << " chunks solved (" << summary.points_solved << " points), "
         << summary.chunks_requeued << " requeued";
    if (summary.queue_failed > 0) {
      line << ", " << summary.queue_failed << " failed on the queue";
    }
    line << (summary.queue_drained ? ", queue drained" : "") << " in "
         << summary.wall_seconds << " s";
    log_line(log, line.str());
  }
  if (TraceWriter* t = global_trace()) {
    t->event("worker_done", {{"owner", owner},
                             {"chunks", summary.chunks_solved},
                             {"points", summary.points_solved},
                             {"seconds", summary.wall_seconds}});
  }
  return summary;
}

}  // namespace esched
