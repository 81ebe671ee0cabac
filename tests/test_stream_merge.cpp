// Tests for the streaming/resume/merge layer: streamed CSVs match batch
// CSVs byte-for-byte, an interrupted stream resumes to a byte-identical
// file, `merge_csv_reports` of shard CSVs reproduces the unsharded report
// (including empty shards), a report or merge whose final flush fails
// publishes nothing, shard range math survives huge totals, the
// disk-cache field table keeps serializer/deserializer/count in sync, and
// `cache ls/gc` manifest + eviction behave.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "engine/disk_cache.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"

namespace esched {
namespace {

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

/// Cheap deterministic mixed-solver scenario (analytic backends only).
Scenario stream_scenario() {
  Scenario s;
  s.name = "stream_test";
  s.k_values = {2};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kMmkBaseline};
  return s;
}

/// Streams `points` through a runner into `path` (resuming when the file
/// holds a partial run) and finishes the report.
void stream_sweep(const std::vector<RunPoint>& points,
                  const std::string& path) {
  StreamingCsvReport report(path);
  SweepRunner runner(4);
  runner.run(points, nullptr,
             [&report](std::size_t index, const RunPoint& point,
                       const RunResult& result) {
               report.add_row(index, point, result);
             });
  report.finish(points.size());
}

TEST(ShardRange, PartitionsAndMatchesFloorFormula) {
  const std::size_t total = 10;
  const std::size_t count = 4;
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [begin, end] = shard_range(total, i, count);
    EXPECT_EQ(begin, prev_end);  // contiguous, gap-free
    EXPECT_EQ(begin, i * total / count);  // the documented floor split
    EXPECT_LE(begin, end);
    covered += end - begin;
    prev_end = end;
  }
  EXPECT_EQ(prev_end, total);
  EXPECT_EQ(covered, total);
  EXPECT_THROW(shard_range(10, 4, 4), Error);
  EXPECT_THROW(shard_range(10, 0, 0), Error);
}

TEST(ShardRange, HugeTotalsDoNotOverflow) {
  // index * total wraps 64-bit arithmetic here; the division-first form
  // must still produce a clean partition into near-equal slices.
  const std::size_t total = std::size_t{1} << 62;
  const std::size_t count = 7;
  std::size_t prev_end = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [begin, end] = shard_range(total, i, count);
    EXPECT_EQ(begin, prev_end);
    const std::size_t size = end - begin;
    EXPECT_GE(size, total / count);
    EXPECT_LE(size, total / count + 1);
    prev_end = end;
  }
  EXPECT_EQ(prev_end, total);
}

TEST(ShardRange, SmallTotalYieldsEmptyShards) {
  // total < count: every point lands somewhere, the rest are empty.
  std::size_t nonempty = 0;
  std::size_t prev_end = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [begin, end] = shard_range(2, i, 4);
    EXPECT_EQ(begin, prev_end);
    nonempty += (end > begin) ? 1 : 0;
    prev_end = end;
  }
  EXPECT_EQ(prev_end, 2u);
  EXPECT_EQ(nonempty, 2u);
}

TEST(StreamingCsvReport, StreamedFileMatchesBatchReportByteForByte) {
  const Scenario s = stream_scenario();
  const auto points = s.expand();
  SweepRunner runner(4);
  const auto results = runner.run(points);

  const std::string batch_path = testing::TempDir() + "stream_batch.csv";
  write_csv_report(batch_path, points, results);

  const std::string stream_path = testing::TempDir() + "stream_live.csv";
  std::remove(stream_path.c_str());
  stream_sweep(points, stream_path);

  EXPECT_EQ(read_file(stream_path), read_file(batch_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(StreamingCsvReport, ResumeAfterMidRowTruncationIsByteIdentical) {
  const Scenario s = stream_scenario();
  const auto points = s.expand();

  const std::string full_path = testing::TempDir() + "stream_full.csv";
  std::remove(full_path.c_str());
  stream_sweep(points, full_path);
  const std::string full = read_file(full_path);

  // Kill the run mid-row: cut a few bytes into the 6th data line.
  std::size_t newlines = 0;
  std::size_t cut = std::string::npos;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n' && ++newlines == 6) {
      cut = i + 10;
      break;
    }
  }
  ASSERT_LT(cut, full.size());
  const std::string resumed_path = testing::TempDir() + "stream_resumed.csv";
  write_file(resumed_path, full.substr(0, cut));

  {
    StreamingCsvReport probe(resumed_path);
    EXPECT_EQ(probe.rows_resumed(), 5u);  // the torn 6th row is dropped
    // Abandon without finishing: the truncated-but-clean file remains.
  }
  stream_sweep(points, resumed_path);
  EXPECT_EQ(read_file(resumed_path), full);

  // Rerunning an already-complete file is a no-op byte-wise.
  stream_sweep(points, full_path);
  EXPECT_EQ(read_file(full_path), full);

  std::remove(full_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(StreamingCsvReport, RefusesForeignHeader) {
  const std::string path = testing::TempDir() + "stream_foreign.csv";
  write_file(path, "a,b,c\n1,2,3\n");
  EXPECT_THROW(StreamingCsvReport{path}, Error);
  std::remove(path.c_str());
}

TEST(StreamingCsvReport, TornHeaderRestartsFresh) {
  // Killed before even the header's newline hit disk: resume must
  // restart cleanly, not error out until the user deletes the file.
  const Scenario s = stream_scenario();
  const auto points = s.expand();
  const std::string path = testing::TempDir() + "stream_torn_header.csv";
  write_file(path, "k,rho,mu_i");  // header prefix, no newline
  stream_sweep(points, path);
  {
    StreamingCsvReport probe(path);
    EXPECT_EQ(probe.rows_resumed(), points.size());
  }
  std::remove(path.c_str());
}

TEST(StreamingCsvReport, RefusesResumingAnotherSweepsRowsUntouched) {
  // The schema header is uniform across scenarios, so resume must catch
  // a --out written by a different sweep via the rows themselves — and
  // leave the foreign file bitwise intact (truncation and appends are
  // deferred until every kept row has verified).
  Scenario other = stream_scenario();
  other.rho_values = {0.6, 0.8};  // different grid, same row count
  const auto other_points = other.expand();
  const std::string path = testing::TempDir() + "stream_mixed.csv";
  std::remove(path.c_str());
  stream_sweep(other_points, path);
  const std::string foreign = read_file(path);

  const auto points = stream_scenario().expand();
  ASSERT_EQ(points.size(), other_points.size());
  EXPECT_THROW(stream_sweep(points, path), Error);
  EXPECT_EQ(read_file(path), foreign);

  // Same with a *partial* foreign file (fewer rows than the sweep):
  // the new sweep's rows must buffer, never mix in behind foreign ones.
  std::size_t newlines = 0;
  std::size_t cut = std::string::npos;
  for (std::size_t i = 0; i < foreign.size(); ++i) {
    if (foreign[i] == '\n' && ++newlines == 11) {  // header + 10 rows
      cut = i + 1;
      break;
    }
  }
  ASSERT_LT(cut, foreign.size());
  write_file(path, foreign.substr(0, cut));
  EXPECT_THROW(stream_sweep(points, path), Error);
  EXPECT_EQ(read_file(path), foreign.substr(0, cut));
  std::remove(path.c_str());
}

TEST(Merge, ShardCsvsReproduceUnshardedReport) {
  const Scenario s = stream_scenario();
  const auto points = s.expand();
  SweepRunner runner(2);
  const auto results = runner.run(points);

  const std::string full_path = testing::TempDir() + "merge_full.csv";
  write_csv_report(full_path, points, results);

  const std::size_t count = 3;
  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [begin, end] = shard_range(points.size(), i, count);
    const std::vector<RunPoint> shard_points(points.begin() + begin,
                                             points.begin() + end);
    const std::vector<RunResult> shard_results(results.begin() + begin,
                                               results.begin() + end);
    shard_paths.push_back(testing::TempDir() + "merge_shard" +
                          std::to_string(i) + ".csv");
    write_csv_report(shard_paths.back(), shard_points, shard_results);
  }

  const std::string merged_path = testing::TempDir() + "merge_merged.csv";
  const MergeStats stats = merge_csv_reports(shard_paths, merged_path);
  EXPECT_EQ(stats.files, count);
  EXPECT_EQ(stats.rows, points.size());
  EXPECT_EQ(read_file(merged_path), read_file(full_path));

  std::remove(full_path.c_str());
  std::remove(merged_path.c_str());
  for (const auto& path : shard_paths) std::remove(path.c_str());
}

TEST(Merge, AcceptsHeaderOnlyCsvsFromEmptyShards) {
  Scenario s = stream_scenario();
  s.rho_values = {0.5};
  s.mu_i_values = {1.0};
  s.solvers = {SolverKind::kMmkBaseline};  // 2 points, 4 shards
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 2u);
  SweepRunner runner(1);
  const auto results = runner.run(points);

  const std::string full_path = testing::TempDir() + "merge_small_full.csv";
  write_csv_report(full_path, points, results);

  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [begin, end] = shard_range(points.size(), i, 4);
    const std::vector<RunPoint> shard_points(points.begin() + begin,
                                             points.begin() + end);
    const std::vector<RunResult> shard_results(results.begin() + begin,
                                               results.begin() + end);
    shard_paths.push_back(testing::TempDir() + "merge_small_shard" +
                          std::to_string(i) + ".csv");
    write_csv_report(shard_paths.back(), shard_points, shard_results);
  }

  const std::string merged_path = testing::TempDir() + "merge_small_out.csv";
  const MergeStats stats = merge_csv_reports(shard_paths, merged_path);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(read_file(merged_path), read_file(full_path));

  std::remove(full_path.c_str());
  std::remove(merged_path.c_str());
  for (const auto& path : shard_paths) std::remove(path.c_str());
}

TEST(Merge, OutputNamingAnInputDoesNotDestroyIt) {
  const std::string a = testing::TempDir() + "merge_inplace_a.csv";
  const std::string b = testing::TempDir() + "merge_inplace_b.csv";
  write_file(a, "x,y\n1,2\n");
  write_file(b, "x,y\n3,4\n");
  const MergeStats stats = merge_csv_reports({a, b}, b);  // --out == input
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(read_file(b), "x,y\n1,2\n3,4\n# summary rows=2\n");
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, RejectsMismatchedHeadersAndTruncatedRows) {
  const std::string a = testing::TempDir() + "merge_bad_a.csv";
  const std::string b = testing::TempDir() + "merge_bad_b.csv";
  const std::string out = testing::TempDir() + "merge_bad_out.csv";
  write_file(a, "x,y\n1,2\n");
  write_file(b, "x,z\n3,4\n");
  EXPECT_THROW(merge_csv_reports({a, b}, out), Error);
  write_file(b, "x,y\n3,4");  // no trailing newline: torn row
  EXPECT_THROW(merge_csv_reports({a, b}, out), Error);
  write_file(b, "x,y\n3,4,5\n");  // arity mismatch
  EXPECT_THROW(merge_csv_reports({a, b}, out), Error);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(out.c_str());
}

/// Caps the size of any file this process writes at `bytes` and ignores
/// SIGXFSZ, so a write past the cap fails with EFBIG instead of killing
/// the process. For death-test children only: the cap is permanent.
void limit_file_size(rlim_t bytes) {
  const rlimit limit{bytes, bytes};
  if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(3);
  std::signal(SIGXFSZ, SIG_IGN);
}

TEST(Merge, FailedFinalFlushPublishesNothing) {
  // The merged CSV (~500 bytes) fits in the stream buffer, so it reaches
  // the temp file only at the final flush, which a 100-byte size cap makes
  // fail. The merge must throw and leave neither --out nor the temp.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "merge_fsize";
  fs::remove_all(dir);
  fs::create_directories(dir / "in");
  const std::string a = (dir / "in" / "a.csv").string();
  const std::string b = (dir / "in" / "b.csv").string();
  std::string rows = "x,y\n";
  for (int n = 0; n < 40; ++n) rows += std::to_string(n) + ",value\n";
  write_file(a, rows);
  write_file(b, rows);
  const fs::path out_dir = dir / "out";
  fs::create_directories(out_dir);
  const std::string out = (out_dir / "merged.csv").string();
  EXPECT_EXIT(
      {
        limit_file_size(100);
        try {
          merge_csv_reports({a, b}, out);
        } catch (const Error&) {
          std::exit(0);
        }
        std::fprintf(stderr, "merge_csv_reports returned normally\n");
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(fs::is_empty(out_dir));
  fs::remove_all(dir);
}

/// Writes a two-row report (~1 KB as CSV or JSON) into a fresh `out_dir`
/// in a death-test child whose files are capped at 100 bytes. The rows
/// fit in the stream buffer, so they reach the temp file only at the
/// final flush, which the cap makes fail: the write must throw
/// esched::Error and leave `out_dir` empty — no torn report under its
/// final name, no temp.
template <typename Write>
void expect_failed_flush_publishes_nothing(const std::string& name,
                                           Write write) {
  namespace fs = std::filesystem;
  const fs::path out_dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  std::vector<RunPoint> points = stream_scenario().expand();
  points.resize(2);
  const std::vector<RunResult> results(points.size());
  const std::string path = (out_dir / "report").string();
  EXPECT_EXIT(
      {
        limit_file_size(100);
        try {
          write(path, points, results);
        } catch (const Error&) {
          std::exit(0);
        }
        std::fprintf(stderr, "the report write returned normally\n");
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(fs::is_empty(out_dir));
  fs::remove_all(out_dir);
}

TEST(Report, CsvFailedFinalFlushPublishesNothing) {
  expect_failed_flush_publishes_nothing(
      "report_csv_fsize",
      [](const std::string& path, const std::vector<RunPoint>& points,
         const std::vector<RunResult>& results) {
        write_csv_report(path, points, results);
      });
}

TEST(Report, JsonFailedFinalFlushPublishesNothing) {
  expect_failed_flush_publishes_nothing(
      "report_json_fsize",
      [](const std::string& path, const std::vector<RunPoint>& points,
         const std::vector<RunResult>& results) {
        write_json_report(path, points, results);
      });
}

TEST(DiskCacheFieldTable, SerializerAndCountStayInSync) {
  RunResult r;
  r.mean_response_time = 1.25;
  r.num_states = 421;
  r.dom_checkpoints = 17;
  r.solver_iterations = 33;
  r.solve_seconds = 0.125;
  const std::string text = serialize_run_result(r);

  // One line per table field plus the format tag.
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, run_result_field_count() + 1);

  const auto loaded = deserialize_run_result(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(numerically_equal(*loaded, r));
  EXPECT_EQ(loaded->solve_seconds, r.solve_seconds);

  // Dropping ANY single field line must read as a miss — the expected
  // count comes from the same table as the serializer, so the two cannot
  // silently desync when RunResult grows a field.
  std::vector<std::string> all_lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) all_lines.push_back(line);
  for (std::size_t drop = 1; drop < all_lines.size(); ++drop) {
    std::ostringstream damaged;
    for (std::size_t n = 0; n < all_lines.size(); ++n) {
      if (n != drop) damaged << all_lines[n] << '\n';
    }
    EXPECT_FALSE(deserialize_run_result(damaged.str()).has_value())
        << "dropped: " << all_lines[drop];
  }
}

TEST(DiskCacheHygiene, ListAndGcEvictOldestFirst) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "esched_cache_gc_test";
  fs::remove_all(dir);
  const DiskResultCache cache(dir);

  RunResult r;
  r.mean_response_time = 2.0;
  cache.store("key-a", r);
  cache.store("key-b", r);
  cache.store("key-c", r);
  // Age key-a artificially so eviction order is deterministic.
  fs::last_write_time(cache.entry_path("key-a"),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(10));
  // A stale temp file from a crashed writer — and a fresh one that
  // could belong to a live concurrent store and must survive gc.
  write_file(dir + "/dead.result.tmp.1.2", "junk");
  fs::last_write_time(dir + "/dead.result.tmp.1.2",
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(10));
  write_file(dir + "/live.result.tmp.3.4", "junk");

  auto entries = cache.list_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().key, "key-a");  // oldest first
  for (const auto& entry : entries) {
    EXPECT_GT(entry.bytes, 0u);
    EXPECT_FALSE(entry.key.empty());
  }

  // Age-based eviction takes only the old entry (and the temp file).
  const CacheGcResult aged = cache.gc(3600.0, std::nullopt);
  EXPECT_EQ(aged.scanned, 3u);
  EXPECT_EQ(aged.removed, 1u);
  EXPECT_FALSE(cache.load("key-a").has_value());
  EXPECT_TRUE(cache.load("key-b").has_value());
  EXPECT_FALSE(fs::exists(dir + "/dead.result.tmp.1.2"));
  EXPECT_TRUE(fs::exists(dir + "/live.result.tmp.3.4"));

  // Size-based eviction clears the rest.
  const CacheGcResult sized = cache.gc(std::nullopt, std::uintmax_t{0});
  EXPECT_EQ(sized.removed, 2u);
  EXPECT_EQ(sized.bytes_kept, 0u);
  EXPECT_TRUE(cache.list_entries().empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace esched
