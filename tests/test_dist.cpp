// Tests for the distributed sweep queue (src/dist): init/manifest round
// trips, the claim state machine under races, lease expiry -> requeue,
// torn task/result files ignored on scan, collect refusing an incomplete
// queue with a named error, the JSON report merge, and the headline
// invariant — three concurrent workers (one of them "crashed" mid-sweep)
// collect to a CSV byte-identical to the single-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/lease.hpp"
#include "dist/work_queue.hpp"
#include "dist/worker.hpp"
#include "engine/report.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// A fresh scratch queue directory (removed up front so reruns are
/// clean).
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "esched_dist_" + name;
  fs::remove_all(dir);
  return dir;
}

/// A cheap deterministic two-scenario sweep (analytic backends only):
/// two spec texts loaded through the engine's one construction path.
LoadedSweep test_sweep() {
  const std::string dir = testing::TempDir() + "esched_dist_specs";
  fs::create_directories(dir);
  write_file(dir + "/a.json", R"json({
    "name": "dist-a",
    "axes": {"k": [2], "rho": [0.5, 0.7, 0.9],
             "mu_i": [0.5, 1, 2], "mu_e": [1],
             "policy": ["IF", "EF"], "solver": ["qbd", "mmk"]}
  })json");
  write_file(dir + "/b.json", R"json({
    "name": "dist-b",
    "axes": {"k": [4], "rho": [0.8], "mu_i": [0.25, 3.25], "mu_e": [1],
             "policy": ["IF", "EF"], "solver": ["qbd"]}
  })json");
  return load_sweep({dir + "/a.json", dir + "/b.json"});
}

void backdate(const std::string& path, std::chrono::seconds by) {
  fs::last_write_time(path, fs::file_time_type::clock::now() - by);
}

TEST(WorkQueueInit, ManifestRoundTripsAndReinitRefused) {
  const std::string dir = scratch_dir("init");
  const LoadedSweep sweep = test_sweep();
  const WorkQueue queue = WorkQueue::init(dir, sweep, 7);

  // 36 + 4 = 40 points in chunks of 7 -> 6 chunks, last one short.
  EXPECT_EQ(sweep.total_points, 40u);
  EXPECT_EQ(queue.manifest().num_chunks, 6u);
  EXPECT_EQ(queue.manifest().chunk_size, 7u);
  EXPECT_FALSE(queue.manifest().with_size_dist);
  ASSERT_EQ(queue.manifest().scenarios.size(), 2u);

  const auto tasks = queue.pending_tasks();
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks.front().begin, 0u);
  EXPECT_EQ(tasks.back().end, 40u);
  for (std::size_t n = 1; n < tasks.size(); ++n) {
    EXPECT_EQ(tasks[n].begin, tasks[n - 1].end);  // contiguous, row order
  }

  // Reopening parses the embedded specs back to the same expansion.
  WorkQueue reopened(dir);
  EXPECT_EQ(reopened.expanded_points().size(), 40u);
  EXPECT_EQ(reopened.expanded_points()[0].cache_key(),
            sweep.concatenated()[0].cache_key());
  EXPECT_EQ(reopened.expanded_points()[39].cache_key(),
            sweep.concatenated()[39].cache_key());

  // A directory already holding a queue is refused, not clobbered.
  EXPECT_THROW(WorkQueue::init(dir, sweep, 7), Error);
  // And a non-queue directory is not a queue.
  EXPECT_THROW(WorkQueue(dir + "/tasks"), Error);
  fs::remove_all(dir);
}

TEST(WorkQueueClaim, DuplicateClaimRaceHasOneWinner) {
  const std::string dir = scratch_dir("race");
  const WorkQueue queue = WorkQueue::init(dir, test_sweep(), 7);
  const ChunkTask task = queue.pending_tasks().front();

  // Sequential race: second claim of the same task must lose cleanly.
  EXPECT_TRUE(queue.claim(task, "w1"));
  EXPECT_FALSE(queue.claim(task, "w2"));
  ASSERT_EQ(queue.leases().size(), 1u);
  EXPECT_EQ(queue.leases().front().owner, "w1");
  EXPECT_EQ(queue.pending_tasks().size(), 5u);

  // Threaded race on the next task: exactly one of 8 claimants wins.
  const ChunkTask next = queue.pending_tasks().front();
  std::vector<std::thread> pool;
  std::atomic<int> wins{0};
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&queue, &next, &wins, t] {
      if (queue.claim(next, "racer" + std::to_string(t))) ++wins;
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_EQ(queue.leases().size(), 2u);
  fs::remove_all(dir);
}

TEST(WorkQueueLease, ExpiryRequeuesAndHeartbeatPreventsIt) {
  const std::string dir = scratch_dir("expiry");
  const WorkQueue queue = WorkQueue::init(dir, test_sweep(), 7);
  const ChunkTask task = queue.pending_tasks().front();
  ASSERT_TRUE(queue.claim(task, "crashed"));

  // A live lease is not reclaimed.
  EXPECT_EQ(queue.reclaim_expired(30.0), 0u);
  EXPECT_EQ(queue.pending_tasks().size(), 5u);

  // Crash: the heartbeat goes stale, the chunk is requeued and
  // immediately claimable again.
  backdate(queue.lease_path(task.chunk), std::chrono::seconds(120));
  EXPECT_EQ(queue.counts(30.0).expired, 1u);
  EXPECT_EQ(queue.reclaim_expired(30.0), 1u);
  EXPECT_TRUE(queue.leases().empty());
  ASSERT_EQ(queue.pending_tasks().size(), 6u);
  EXPECT_EQ(queue.pending_tasks().front().chunk, task.chunk);
  EXPECT_TRUE(queue.claim(task, "w2"));

  // A heartbeat resets the clock: after touching, the lease survives.
  backdate(queue.lease_path(task.chunk), std::chrono::seconds(120));
  EXPECT_TRUE(queue.heartbeat(task.chunk));
  EXPECT_EQ(queue.reclaim_expired(30.0), 0u);
  ASSERT_EQ(queue.leases().size(), 1u);
  EXPECT_EQ(queue.leases().front().owner, "w2");
  fs::remove_all(dir);
}

TEST(WorkQueueScan, TornTaskAndResultFilesAreIgnored) {
  const std::string dir = scratch_dir("torn");
  const WorkQueue queue = WorkQueue::init(dir, test_sweep(), 7);

  // Torn / foreign files in tasks/: half-written JSON, a foreign name,
  // an out-of-range chunk id, and inconsistent bounds.
  write_file(dir + "/tasks/chunk-000099.json", "{\"chunk\": 99, \"beg");
  write_file(dir + "/tasks/notes.txt", "not a task");
  write_file(dir + "/tasks/chunk-000042.json",
             "{\"chunk\": 42, \"begin\": 0, \"end\": 7}");
  write_file(dir + "/tasks/chunk-000004.json.tmp.1.2", "partial write");
  EXPECT_EQ(queue.pending_tasks().size(), 6u);  // the real ones only

  // A torn done record reads as "chunk unfinished", so the queue keeps
  // the chunk solvable and collect refuses.
  write_file(queue.done_path(0), "{\"chunk\": 0, \"rows\":");
  EXPECT_EQ(queue.completed().size(), 0u);
  EXPECT_FALSE(queue.counts(30.0).done > 0);

  // A torn lease (no owner parsable) still scans — by age, from the
  // filename — and is reclaimable... but chunk 0's task file still
  // exists, so requeue overwrites it harmlessly.
  write_file(queue.lease_path(1), "{\"chu");
  ASSERT_EQ(queue.leases().size(), 1u);
  EXPECT_EQ(queue.leases().front().owner, "");
  backdate(queue.lease_path(1), std::chrono::seconds(120));
  EXPECT_EQ(queue.reclaim_expired(30.0), 1u);

  // Crashed writers' orphaned tmp files are swept once stale; a fresh
  // one (a live writer mid-store) survives.
  write_file(dir + "/results/chunk-000001.csv.tmp.9.9", "half a csv");
  backdate(dir + "/results/chunk-000001.csv.tmp.9.9",
           std::chrono::seconds(7200));
  backdate(dir + "/tasks/chunk-000004.json.tmp.1.2",
           std::chrono::seconds(7200));
  EXPECT_EQ(queue.sweep_stale_tmp(), 2u);
  write_file(dir + "/results/chunk-000002.csv.tmp.9.9", "live");
  EXPECT_EQ(queue.sweep_stale_tmp(), 0u);
  EXPECT_TRUE(fs::exists(dir + "/results/chunk-000002.csv.tmp.9.9"));
  fs::remove_all(dir);
}

TEST(WorkQueueCollect, RefusesIncompleteQueueWithNamedError) {
  const std::string dir = scratch_dir("incomplete");
  WorkQueue queue = WorkQueue::init(dir, test_sweep(), 7);

  // Solve exactly one chunk.
  WorkerOptions options;
  options.threads = 1;
  options.max_chunks = 1;
  options.owner = "only";
  const WorkerSummary summary = run_worker(dir, options);
  EXPECT_EQ(summary.chunks_solved, 1u);
  EXPECT_FALSE(summary.queue_drained);
  EXPECT_EQ(queue.counts(30.0).done, 1u);

  try {
    queue.collectable_paths(false);
    FAIL() << "collect accepted an incomplete queue";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
    EXPECT_NE(what.find("5 of 6 chunks"), std::string::npos) << what;
    EXPECT_NE(what.find("esched work"), std::string::npos) << what;
  }

  // A done marker whose result file vanished is named specifically.
  const ChunkRecord done = queue.completed().front();
  fs::remove(queue.result_csv_path(done.chunk));
  for (std::size_t c = 0; c < queue.manifest().num_chunks; ++c) {
    if (c != done.chunk) {
      write_file(queue.done_path(c),
                 read_file(queue.done_path(done.chunk)));
    }
  }
  try {
    queue.collectable_paths(false);
    FAIL() << "collect accepted a missing result file";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("marked done but its result file"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(DistWorkers, ThreeConcurrentWorkersWithACrashCollectByteIdentical) {
  const std::string dir = scratch_dir("e2e");
  const LoadedSweep sweep = test_sweep();

  // The single-process reference: the exact CSV `esched run a b --out`
  // would write.
  const std::vector<RunPoint> all = sweep.concatenated();
  SweepRunner reference_runner(2);
  const auto reference_results = reference_runner.run(all);
  const std::string reference_csv = testing::TempDir() + "dist_reference.csv";
  write_csv_report(reference_csv, all, reference_results,
                   sweep.with_size_dist);

  WorkQueue queue = WorkQueue::init(dir, sweep, 3);  // 14 chunks

  // Simulate a worker that died mid-chunk: a claimed lease whose
  // heartbeat is long stale. The real workers must reclaim and re-solve
  // it.
  const ChunkTask doomed = queue.pending_tasks()[2];
  ASSERT_TRUE(queue.claim(doomed, "crashed-worker"));
  backdate(queue.lease_path(doomed.chunk), std::chrono::seconds(600));

  const auto work = [&dir](const char* owner) {
    WorkerOptions options;
    options.threads = 1;
    options.owner = owner;
    options.lease_ttl_seconds = 5.0;
    options.poll_ms = 20;
    return run_worker(dir, options);
  };
  WorkerSummary s1, s2, s3;
  std::thread w1([&] { s1 = work("w1"); });
  std::thread w2([&] { s2 = work("w2"); });
  std::thread w3([&] { s3 = work("w3"); });
  w1.join();
  w2.join();
  w3.join();

  EXPECT_TRUE(s1.queue_drained && s2.queue_drained && s3.queue_drained);
  EXPECT_EQ(s1.chunks_solved + s2.chunks_solved + s3.chunks_solved, 14u);
  EXPECT_EQ(s1.points_solved + s2.points_solved + s3.points_solved, 40u);
  EXPECT_GE(s1.chunks_requeued + s2.chunks_requeued + s3.chunks_requeued, 1u)
      << "the crashed worker's lease was never reclaimed";

  // Collect: byte-identical to the single-process report.
  const std::string collected_csv = testing::TempDir() + "dist_collected.csv";
  merge_csv_reports(queue.collectable_paths(false), collected_csv);
  EXPECT_EQ(read_file(collected_csv), read_file(reference_csv));

  // And the JSON collect carries the same points with summed stats.
  const std::string collected_json =
      testing::TempDir() + "dist_collected.json";
  const MergeStats json_stats =
      merge_json_reports(queue.collectable_paths(true), collected_json);
  EXPECT_EQ(json_stats.rows, 40u);
  const JsonValue merged =
      parse_json(read_file(collected_json), collected_json);
  EXPECT_EQ(merged.find("points")->as_array("points").size(), 40u);
  EXPECT_EQ(merged.find("stats")
                ->find("total_points")
                ->as_number("stats.total_points"),
            40.0);

  std::remove(reference_csv.c_str());
  std::remove(collected_csv.c_str());
  std::remove(collected_json.c_str());
  fs::remove_all(dir);
}

TEST(DistWorkers, PoisonedChunkFailsTerminallyInsteadOfCyclingTheFleet) {
  // A spec whose solves THROW (qbd rejects non-exponential sizes) must
  // not wedge the fleet in a crash-requeue loop: the chunk is marked
  // failed, never requeued, and collect surfaces the solver's error.
  const std::string dir = scratch_dir("poison");
  const std::string spec_dir = testing::TempDir() + "esched_dist_specs";
  fs::create_directories(spec_dir);
  write_file(spec_dir + "/poison.json", R"json({
    "name": "dist-poison",
    "axes": {"k": [2], "rho": [0.5], "mu_i": [1], "mu_e": [1],
             "policy": ["IF", "EF"], "solver": ["qbd"]},
    "options": {"size_dist_i": "erlang:2"}
  })json");
  const LoadedSweep sweep = load_sweep({spec_dir + "/poison.json"});
  WorkQueue queue = WorkQueue::init(dir, sweep, 1);  // 2 chunks
  ASSERT_EQ(queue.manifest().num_chunks, 2u);

  WorkerOptions options;
  options.threads = 1;
  options.owner = "w1";
  options.poll_ms = 10;
  const WorkerSummary s1 = run_worker(dir, options);
  EXPECT_EQ(s1.chunks_solved, 0u);
  EXPECT_EQ(s1.chunks_failed, 2u);
  EXPECT_EQ(s1.queue_failed, 2u);
  EXPECT_FALSE(s1.queue_drained);

  // A second worker sees the markers, solves nothing, exits promptly —
  // no crash-requeue cycle.
  options.owner = "w2";
  const WorkerSummary s2 = run_worker(dir, options);
  EXPECT_EQ(s2.chunks_solved, 0u);
  EXPECT_EQ(s2.chunks_failed, 0u);
  EXPECT_EQ(s2.queue_failed, 2u);

  const auto failures = queue.failures();
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures.front().owner, "w1");
  EXPECT_NE(failures.front().error.find("size_dist"), std::string::npos)
      << failures.front().error;
  EXPECT_EQ(queue.counts(30.0).failed, 2u);

  try {
    queue.collectable_paths(false);
    FAIL() << "collect accepted a queue with failed chunks";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed permanently"), std::string::npos) << what;
    EXPECT_NE(what.find("size_dist"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(DistWorkers, ZeroPollIntervalIsRejectedBeforeAnyClaim) {
  // poll_ms 0 would rescan the queue directory without sleeping.
  const std::string dir = scratch_dir("zero_poll");
  WorkQueue queue = WorkQueue::init(dir, test_sweep(), 3);
  const std::size_t pending = queue.pending_tasks().size();
  WorkerOptions options;
  options.threads = 1;
  options.poll_ms = 0;
  EXPECT_THROW(run_worker(dir, options), Error);
  EXPECT_EQ(queue.pending_tasks().size(), pending);
  fs::remove_all(dir);
}

TEST(DistWorkers, ZeroLeaseTtlIsRejectedBeforeAnyClaim) {
  // A TTL of 0 would make every worker requeue every live lease.
  const std::string dir = scratch_dir("zero_ttl");
  WorkQueue queue = WorkQueue::init(dir, test_sweep(), 3);
  const std::size_t pending = queue.pending_tasks().size();
  WorkerOptions options;
  options.threads = 1;
  options.lease_ttl_seconds = 0.0;
  try {
    run_worker(dir, options);
    ADD_FAILURE() << "run_worker accepted a lease TTL of 0";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--lease-ttl"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(queue.pending_tasks().size(), pending);
  EXPECT_TRUE(queue.leases().empty());
  fs::remove_all(dir);
}

TEST(MergeJsonReports, ConcatenatesPointsAndRecomputesStats) {
  const LoadedSweep sweep = test_sweep();
  const std::vector<RunPoint> all = sweep.concatenated();
  SweepRunner runner(2);
  SweepStats stats;
  const auto results = runner.run(all, &stats);

  // Write the unsharded report and two slices, all with stats blocks.
  const std::string full = testing::TempDir() + "mj_full.json";
  const std::string a = testing::TempDir() + "mj_a.json";
  const std::string b = testing::TempDir() + "mj_b.json";
  const std::string merged = testing::TempDir() + "mj_merged.json";
  write_json_report(full, all, results, &stats, sweep.with_size_dist);
  const std::size_t half = all.size() / 2;
  const std::vector<RunPoint> pa(all.begin(), all.begin() + half);
  const std::vector<RunPoint> pb(all.begin() + half, all.end());
  const std::vector<RunResult> ra(results.begin(), results.begin() + half);
  const std::vector<RunResult> rb(results.begin() + half, results.end());
  SweepStats sa = stats, sb = stats;
  sa.total_points = pa.size();
  sb.total_points = pb.size();
  write_json_report(a, pa, ra, &sa, sweep.with_size_dist);
  write_json_report(b, pb, rb, &sb, sweep.with_size_dist);

  const MergeStats merge_stats = merge_json_reports({a, b}, merged);
  EXPECT_EQ(merge_stats.files, 2u);
  EXPECT_EQ(merge_stats.rows, all.size());

  // Merged points == unsharded points, value for value (numbers compare
  // through the parser, so formatting differences cannot hide drift).
  const JsonValue m = parse_json(read_file(merged), merged);
  const JsonValue f = parse_json(read_file(full), full);
  const auto& m_points = m.find("points")->as_array("m.points");
  const auto& f_points = f.find("points")->as_array("f.points");
  ASSERT_EQ(m_points.size(), f_points.size());
  for (std::size_t n = 0; n < m_points.size(); ++n) {
    EXPECT_EQ(m_points[n].dump(), f_points[n].dump()) << "point " << n;
  }
  EXPECT_EQ(m.find("stats")
                ->find("total_points")
                ->as_number("stats.total_points"),
            static_cast<double>(all.size()));

  // Mismatched point schemas refuse to merge (the CSV header check's
  // JSON mirror).
  const std::string odd = testing::TempDir() + "mj_odd.json";
  write_file(odd, "{\n  \"points\": [\n    {\"k\": 1, \"weird\": 2}\n  ]\n}\n");
  EXPECT_THROW(merge_json_reports({a, odd}, merged), Error);
  // And a non-report JSON document is named, not mangled.
  write_file(odd, "{\"rows\": []}");
  EXPECT_THROW(merge_json_reports({odd}, merged), Error);

  // merge --out may name an input (temp + rename, like the CSV merge).
  const MergeStats inplace = merge_json_reports({a, b}, b);
  EXPECT_EQ(inplace.rows, all.size());

  for (const auto& path : {full, a, b, merged, odd}) {
    std::remove(path.c_str());
  }
}

TEST(ChunkRanges, CoverExactlyAndLastIsShort) {
  const auto ranges = chunk_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 3u);
  const std::pair<std::size_t, std::size_t> expected[] = {
      {0, 4}, {4, 8}, {8, 10}};
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(ranges[n].first, expected[n].first);
    EXPECT_EQ(ranges[n].second, expected[n].second);
  }
  EXPECT_TRUE(chunk_ranges(0, 4).empty());
  EXPECT_EQ(chunk_ranges(4, 4).size(), 1u);
  EXPECT_EQ(chunk_ranges(1, 100).size(), 1u);
  EXPECT_THROW(chunk_ranges(10, 0), Error);
}

}  // namespace
}  // namespace esched
