// Tests for the observability layer (src/obs): sharded counter and
// histogram correctness under threads, log-bucket boundaries, snapshot
// determinism, trace line integrity — and the layer's core contract,
// proven end to end: instrumentation never changes report bytes or
// numerical results.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Counter, MergesShardsAcrossEightThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.total(), kThreads * kPerThread);
}

TEST(LogHistogram, BucketBoundariesAreExactPowersOfTwo) {
  // Bucket b spans [2^(b + kHistMinExp), 2^(b + kHistMinExp + 1)).
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, kHistMinExp)), 0u);
  EXPECT_EQ(histogram_bucket(1.0), static_cast<std::size_t>(-kHistMinExp));
  EXPECT_EQ(histogram_bucket(2.0), static_cast<std::size_t>(-kHistMinExp) + 1);
  // A value just below a boundary stays in the lower bucket.
  EXPECT_EQ(histogram_bucket(std::nextafter(2.0, 0.0)),
            static_cast<std::size_t>(-kHistMinExp));
  // Non-positive and non-finite values clamp into bucket 0; huge values
  // clamp into the top bucket.
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-1.0), 0u);
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, kHistMinExp) / 4.0), 0u);
  EXPECT_EQ(histogram_bucket(1e300), kHistBuckets - 1);
  // Bounds tile the line: hi(b) == lo(b + 1).
  for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
    EXPECT_DOUBLE_EQ(histogram_bucket_hi(b), histogram_bucket_lo(b + 1));
  }
  EXPECT_DOUBLE_EQ(histogram_bucket_lo(0), std::ldexp(1.0, kHistMinExp));
}

TEST(LogHistogram, ConcurrentRecordsMerge) {
  LogHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int n = 0; n < kPerThread; ++n) {
        hist.record(0.5 + t);  // distinct per-thread values
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const LogHistogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 7.5);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (0.5 + t) * kPerThread;
  EXPECT_NEAR(snap.sum, expected_sum, 1e-6);
  std::uint64_t bucketed = 0;
  for (const auto count : snap.buckets) bucketed += count;
  EXPECT_EQ(bucketed, snap.count);
}

TEST(LogHistogram, SharedShardsKeepExactBoundsAndParseableSnapshots) {
  // Shards are handed out round-robin, so 4 * kMetricShards live threads
  // put four writers on every shard, racing on its first sample, while a
  // reader serializes snapshots. An infinity leaking out of a shard's
  // min/max seeds would make the dump unparseable.
  constexpr int kWriters = 4 * static_cast<int>(kMetricShards);
  constexpr int kPerWriter = 2000;
  MetricsRegistry registry;
  Counter& counter = registry.counter("x.count");
  LogHistogram& hist = registry.histogram("x.seconds");
  const double lowest = 0.25;
  const double highest = 0.25 * kWriters;
  std::atomic<bool> go{false};
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const double value = 0.25 * (t + 1);  // dyadic, so sums are exact
      for (int n = 0; n < kPerWriter; ++n) {
        hist.record(value);
        counter.add();
      }
      running.fetch_sub(1);
    });
  }
  std::string reader_error;
  int snapshots = 0;
  std::thread reader([&] {
    while (!go.load()) std::this_thread::yield();
    while (reader_error.empty() && (running.load() > 0 || snapshots == 0)) {
      try {
        const std::string text = registry.snapshot().to_json().dump();
        const MetricsSnapshot back =
            metrics_snapshot_from_json(parse_json(text, "mid-run"), "mid-run");
        const LogHistogram::Snapshot* h = back.find_histogram("x.seconds");
        if (h == nullptr || h->min < 0.0 || h->max > highest) {
          reader_error = "histogram out of range: " + text;
        }
      } catch (const Error& e) {
        reader_error = e.what();
      }
      ++snapshots;
    }
  });
  go.store(true);
  for (auto& thread : writers) thread.join();
  reader.join();
  EXPECT_EQ(reader_error, "");
  EXPECT_GT(snapshots, 0);
  const LogHistogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(snap.min, lowest);
  EXPECT_EQ(snap.max, highest);
  EXPECT_EQ(snap.sum, 0.25 * kPerWriter * kWriters * (kWriters + 1) / 2);
  EXPECT_EQ(counter.total(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(LogHistogram, QuantilesInterpolateAndClamp) {
  LogHistogram hist;
  hist.record(1.0);
  const LogHistogram::Snapshot one = hist.snapshot();
  // A single sample: every quantile collapses to it (clamped to
  // [min, max], so bucket interpolation cannot widen the answer).
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 1.0);

  LogHistogram many;
  for (int n = 1; n <= 1000; ++n) many.record(n * 0.001);  // 1 ms .. 1 s
  const LogHistogram::Snapshot snap = many.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  // Log-bucket resolution is a factor of two, so quantiles are coarse but
  // must be ordered and inside the observed range.
  const double p50 = snap.quantile(0.5);
  const double p90 = snap.quantile(0.9);
  const double p99 = snap.quantile(0.99);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p99, snap.max);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(p50, 0.5, 0.5);  // within one bucket of the true median
  const LogHistogram::Snapshot empty = LogHistogram().snapshot();
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.min, 0.0);
  EXPECT_EQ(empty.max, 0.0);
}

TEST(ScopedTimer, RecordsOneSampleAndBumpsCounter) {
  LogHistogram hist;
  Counter count;
  {
    ScopedTimer timer(hist, &count);
  }
  const LogHistogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_EQ(count.total(), 1u);
}

TEST(MetricsRegistry, HandlesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);  // one metric per name
  a.add(5);
  b.add(3);
  EXPECT_EQ(registry.counter("x.count").total(), 8u);
  LogHistogram& h = registry.histogram("x.seconds");
  EXPECT_EQ(&h, &registry.histogram("x.seconds"));
}

TEST(MetricsRegistry, SnapshotJsonIsDeterministic) {
  const auto populate = [](MetricsRegistry& registry) {
    // Insertion order deliberately differs from name order.
    registry.histogram("z.seconds").record(0.125);
    registry.counter("b.count").add(7);
    registry.counter("a.count").add(2);
    registry.histogram("z.seconds").record(0.25);
  };
  MetricsRegistry first;
  MetricsRegistry second;
  populate(first);
  populate(second);
  const std::string a = first.snapshot().to_json().dump();
  const std::string b = second.snapshot().to_json().dump();
  EXPECT_EQ(a, b);
  // Sorted by name and carrying the schema version.
  const JsonValue parsed = parse_json(a, "metrics");
  EXPECT_EQ(parsed.find("schema_version")->as_number("v"),
            kMetricsSchemaVersion);
  EXPECT_EQ(parsed.find("gauges"), nullptr);
  EXPECT_EQ(parsed.find("counters")->find("a.count")->as_number("a"), 2.0);
  EXPECT_EQ(
      parsed.find("histograms")->find("z.seconds")->find("count")->as_number(
          "c"),
      2.0);
}

TEST(TraceWriter, ConcurrentEventsStayOneValidJsonPerLine) {
  const std::string path = testing::TempDir() + "esched_trace_test.jsonl";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    TraceWriter writer(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int n = 0; n < kPerThread; ++n) {
          writer.event("test_event", {{"thread", t},
                                      {"n", n},
                                      {"label", std::string("abc")}});
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const JsonValue event = parse_json(line, "trace");  // throws on a tear
    EXPECT_EQ(event.find("ev")->as_string("ev"), "test_event");
    EXPECT_GE(event.find("t")->as_number("t"), 0.0);
    ASSERT_NE(event.find("thread"), nullptr);
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
  std::remove(path.c_str());
}

/// A small mixed-backend scenario for the end-to-end invariants.
Scenario obs_scenario() {
  Scenario s;
  s.name = "obs";
  s.k_values = {2, 4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {1.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kMmkBaseline};
  return s;
}

TEST(Observability, InstrumentationNeverChangesReportBytes) {
  const auto points = obs_scenario().expand();
  // Baseline: no trace sink (metrics are always live — that IS the
  // production configuration the baseline must cover).
  SweepRunner plain(2);
  const auto baseline = plain.run(points);
  const std::string csv_a = testing::TempDir() + "obs_plain.csv";
  write_csv_report(csv_a, points, baseline, /*with_size_dist=*/false);

  // Instrumented: trace sink installed, metrics snapshotted after.
  const std::string trace_path = testing::TempDir() + "obs_run.jsonl";
  {
    TraceWriter writer(trace_path);
    set_global_trace(&writer);
    SweepRunner traced(2);
    const auto results = traced.run(points);
    set_global_trace(nullptr);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t n = 0; n < results.size(); ++n) {
      EXPECT_TRUE(numerically_equal(results[n], baseline[n])) << "row " << n;
    }
    const std::string csv_b = testing::TempDir() + "obs_traced.csv";
    write_csv_report(csv_b, points, results, /*with_size_dist=*/false);
    EXPECT_EQ(read_file(csv_a), read_file(csv_b));
    std::remove(csv_b.c_str());
  }
  // The trace actually recorded the sweep it watched.
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"ev\": \"sweep_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\": \"point_done\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\": \"sweep_done\""), std::string::npos);
  std::remove(csv_a.c_str());
  std::remove(trace_path.c_str());
}

TEST(Observability, CacheHitsReportZeroSolveSecondsAndHonestStats) {
  const auto points = obs_scenario().expand();
  const std::string dir = testing::TempDir() + "esched_obs_cache_hits";
  std::filesystem::remove_all(dir);
  SweepRunner runner(2);
  runner.set_cache_dir(dir);
  SweepStats fresh_stats;
  const auto fresh = runner.run(points, &fresh_stats);
  EXPECT_EQ(fresh_stats.cache_hits, 0u);
  EXPECT_GT(fresh_stats.solve_seconds_total, 0.0);
  for (const auto& result : fresh) EXPECT_FALSE(result.from_cache);

  // A fresh runner on the same cache directory, same points: everything
  // loads. Cached deliveries must say so — from_cache set, solve_seconds
  // zeroed — so cache effectiveness and ETA math never double-count the
  // original solve.
  SweepRunner warm(2);
  warm.set_cache_dir(dir);
  SweepStats warm_stats;
  const auto loaded = warm.run(points, &warm_stats);
  EXPECT_EQ(warm_stats.cache_hits, points.size());
  EXPECT_EQ(warm_stats.disk_hits, points.size());
  EXPECT_DOUBLE_EQ(warm_stats.solve_seconds_total, 0.0);
  ASSERT_EQ(loaded.size(), fresh.size());
  for (std::size_t n = 0; n < loaded.size(); ++n) {
    EXPECT_TRUE(loaded[n].from_cache) << "row " << n;
    EXPECT_DOUBLE_EQ(loaded[n].solve_seconds, 0.0) << "row " << n;
    EXPECT_TRUE(numerically_equal(loaded[n], fresh[n])) << "row " << n;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace esched
