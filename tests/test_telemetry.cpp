// Tests for fleet observability: live telemetry publication and merging
// (src/obs/telemetry), snapshot JSON round-trips and bucket-wise
// histogram merging (src/obs/metrics), and multi-worker span-tree
// reconstruction (src/obs/trace_report). The load-bearing contracts: a
// torn telemetry file reads as absent, merged fleet counters equal the
// sum of the per-worker finals, merged quantiles are re-derived from
// combined buckets (never averaged across processes), and the span
// merger orders interleaved two-process traces deterministically by
// (t, pid, seq).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// --- snapshot JSON round-trip and merging ---------------------------------

TEST(MetricsSnapshotJson, RoundTripsCountersAndHistograms) {
  MetricsRegistry registry;
  registry.counter("sweep.points.solved").add(42);
  LogHistogram& hist = registry.histogram("solver.qbd.seconds");
  hist.record(0.5);
  hist.record(1.5);
  hist.record(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot back =
      metrics_snapshot_from_json(snap.to_json(), "round-trip");
  EXPECT_EQ(back.counter_value("sweep.points.solved"), 42u);
  const LogHistogram::Snapshot* h = back.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 5.0);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
  // Buckets relocated by their exact power-of-two lo bounds: quantiles of
  // the round-tripped snapshot match the original's.
  const LogHistogram::Snapshot* orig =
      snap.find_histogram("solver.qbd.seconds");
  ASSERT_NE(orig, nullptr);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), orig->quantile(0.5));
  EXPECT_DOUBLE_EQ(h->quantile(0.99), orig->quantile(0.99));
}

TEST(MetricsSnapshotJson, RejectsWrongSchemaVersion) {
  // Version 1 (with its "gauges" object) is as foreign as a future one.
  for (const double version : {1.0, 999.0}) {
    JsonValue doc = JsonValue::make_object();
    doc.set("schema_version", JsonValue::make_number(version));
    EXPECT_THROW(metrics_snapshot_from_json(doc, "bad"), Error);
  }
}

TEST(MergeMetricsSnapshots, SumsCounters) {
  MetricsRegistry a;
  a.counter("sweep.points.solved").add(10);
  MetricsRegistry b;
  b.counter("sweep.points.solved").add(32);
  b.counter("cache.shm.hits").add(5);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.counter_value("sweep.points.solved"), 42u);
  EXPECT_EQ(merged.counter_value("cache.shm.hits"), 5u);
}

TEST(MergeMetricsSnapshots, RederivesQuantilesFromCombinedBuckets) {
  // Process A solves only fast points, process B only slow ones. The
  // fleet p50 must come from the COMBINED distribution (~the boundary of
  // the two populations) — averaging the per-process p50s would also land
  // mid-way here, but the p99 separates the approaches: the true combined
  // p99 sits in B's slow bucket, while an average of per-process p99s
  // ((0.004 + 4.0) / 2 ~= 2.0) lands in the empty middle of the
  // distribution where no sample exists.
  MetricsRegistry a;
  MetricsRegistry b;
  for (int n = 0; n < 100; ++n) a.histogram("sweep.point.seconds").record(0.004);
  for (int n = 0; n < 100; ++n) b.histogram("sweep.point.seconds").record(4.0);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  const LogHistogram::Snapshot* h =
      merged.find_histogram("sweep.point.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 200u);
  EXPECT_DOUBLE_EQ(h->min, 0.004);
  EXPECT_DOUBLE_EQ(h->max, 4.0);
  const double p99 = h->quantile(0.99);
  EXPECT_GE(p99, 2.0);  // in the slow population's bucket
  EXPECT_LE(p99, 4.0);
  // And the histogram sum/count give the true fleet mean.
  EXPECT_NEAR(h->mean(), (100 * 0.004 + 100 * 4.0) / 200.0, 1e-12);
}

TEST(MergeMetricsSnapshots, SingleBucketAndEmptyHistograms) {
  // Empty histograms contribute nothing; a single-bucket distribution's
  // quantiles stay clamped to [min, max] after merging.
  MetricsRegistry a;
  MetricsRegistry b;
  a.histogram("solver.qbd.seconds");  // registered, never recorded
  for (int n = 0; n < 7; ++n) b.histogram("solver.qbd.seconds").record(1.25);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  const LogHistogram::Snapshot* h = merged.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 7u);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 1.25);
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 1.25);
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 1.25);

  // Merging only empties yields an empty histogram whose quantiles are 0.
  const MetricsSnapshot empty = merge_metrics_snapshots({a.snapshot()});
  const LogHistogram::Snapshot* e = empty.find_histogram("solver.qbd.seconds");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 0u);
  EXPECT_DOUBLE_EQ(e->quantile(0.5), 0.0);
}

// --- telemetry publication and fleet reads --------------------------------

TEST(Telemetry, FileStemSanitizesOwner) {
  EXPECT_EQ(telemetry_file_stem("host-1.worker_2"), "host-1.worker_2");
  EXPECT_EQ(telemetry_file_stem("a/b c"), "a_b_c");
  EXPECT_EQ(telemetry_file_stem(""), "worker");
}

TEST(Telemetry, PublisherWritesImmediateAndFinalSnapshots) {
  const std::string dir = fresh_dir("esched_telemetry_pub");
  MetricsRegistry registry;
  registry.counter("sweep.points.solved").add(5);
  std::string path;
  {
    TelemetryOptions options;
    options.dir = dir;
    options.owner = "unit.1";
    options.interval_seconds = 3600.0;  // only the ctor + dtor snapshots
    options.registry = &registry;
    TelemetryPublisher publisher(options);
    path = publisher.path();
    // The constructor published synchronously: the fleet sees the worker
    // the moment it starts, final=false.
    const FleetSnapshot live = read_fleet_telemetry(dir);
    ASSERT_EQ(live.workers.size(), 1u);
    EXPECT_EQ(live.workers[0].owner, "unit.1");
    EXPECT_FALSE(live.workers[0].final_snapshot);
    EXPECT_EQ(live.workers[0].metrics.counter_value("sweep.points.solved"),
              5u);
    registry.counter("sweep.points.solved").add(2);
  }
  // The destructor published a final snapshot with the post-increment
  // counter value.
  const FleetSnapshot done = read_fleet_telemetry(dir);
  ASSERT_EQ(done.workers.size(), 1u);
  EXPECT_TRUE(done.workers[0].final_snapshot);
  EXPECT_GE(done.workers[0].uptime_seconds, 0.0);
  EXPECT_EQ(done.workers[0].metrics.counter_value("sweep.points.solved"), 7u);
  EXPECT_GT(done.workers[0].pid, 0);  // this process's pid round-tripped
  EXPECT_EQ(fs::path(path).filename().string(), "unit.1.metrics.json");
}

TEST(Telemetry, PublisherRejectsBadInterval) {
  // A zero interval would rewrite the snapshot in a loop; NaN and values
  // far past a day would break the steady-clock wait. Each is rejected
  // before anything is published.
  const std::string dir = fresh_dir("esched_telemetry_bad_interval");
  MetricsRegistry registry;
  for (const double interval :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 1e9}) {
    SCOPED_TRACE(interval);
    TelemetryOptions options;
    options.dir = dir;
    options.owner = "bad";
    options.interval_seconds = interval;
    options.registry = &registry;
    EXPECT_THROW(TelemetryPublisher{options}, Error);
  }
  EXPECT_TRUE(read_fleet_telemetry(dir).workers.empty());
}

TEST(Telemetry, PublisherTicksOnItsInterval) {
  const std::string dir = fresh_dir("esched_telemetry_tick");
  MetricsRegistry registry;
  TelemetryOptions options;
  options.dir = dir;
  options.owner = "ticker";
  options.interval_seconds = 0.05;
  options.registry = &registry;
  TelemetryPublisher publisher(options);
  registry.counter("telemetry.test.ticks").add(9);
  // Within ~2 s a 50 ms interval must republish the bumped counter; poll
  // instead of sleeping a fixed amount so the test is fast when the tick
  // is prompt and robust when the machine is loaded.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetSnapshot fleet = read_fleet_telemetry(dir);
    if (!fleet.workers.empty()) {
      seen = fleet.workers[0].metrics.counter_value("telemetry.test.ticks");
      if (seen == 9) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(seen, 9u);
}

TEST(Telemetry, TornAndForeignFilesReadAsAbsent) {
  // A worker SIGKILLed mid-write can leave (a) a '.tmp.' orphan from
  // atomic_write_file and (b) — on a filesystem without atomic rename
  // semantics this codebase does not target, or from a foreign writer — a
  // truncated document. Both must read as absent, never throw.
  const std::string dir = fresh_dir("esched_telemetry_torn");
  write_file(dir + "/alive.metrics.json",
             "{\"telemetry_schema_version\":1,\"owner\":\"alive\",\"pid\":1,"
             "\"final\":false,\"uptime_seconds\":1.0,\"metrics\":"
             "{\"schema_version\":2,\"counters\":{\"sweep.points.solved\":3},"
             "\"histograms\":{}}}\n");
  write_file(dir + "/torn.metrics.json",
             "{\"telemetry_schema_version\":1,\"owner\":\"torn\",\"met");
  write_file(dir + "/.tmp.1234.worker.metrics.json", "half-written");
  write_file(dir + "/README.txt", "not telemetry");
  write_file(dir + "/skewed.metrics.json",
             "{\"telemetry_schema_version\":999}");
  const FleetSnapshot fleet = read_fleet_telemetry(dir);
  ASSERT_EQ(fleet.workers.size(), 1u);
  EXPECT_EQ(fleet.workers[0].owner, "alive");
  // torn + skewed counted; '.tmp.' and foreign files are silently ignored
  // (orphan sweeping is the queue's job, and README.txt is not ours).
  EXPECT_EQ(fleet.skipped_files, 2u);
  EXPECT_EQ(fleet.merged.counter_value("sweep.points.solved"), 3u);
}

TEST(Telemetry, MissingDirectoryYieldsEmptyFleet) {
  const FleetSnapshot fleet =
      read_fleet_telemetry(testing::TempDir() + "esched_no_such_dir_xyz");
  EXPECT_TRUE(fleet.workers.empty());
  EXPECT_EQ(fleet.skipped_files, 0u);
  EXPECT_TRUE(fleet.merged.counters.empty());
}

TEST(Telemetry, ThreeWorkerMergeEqualsSumOfFinals) {
  const std::string dir = fresh_dir("esched_telemetry_fleet3");
  std::uint64_t expected_points = 0;
  double expected_hist_sum = 0.0;
  for (int w = 0; w < 3; ++w) {
    MetricsRegistry registry;
    const std::uint64_t points = 10 + static_cast<std::uint64_t>(w) * 7;
    registry.counter("sweep.points.solved").add(points);
    expected_points += points;
    for (int n = 0; n <= w; ++n) {
      const double seconds = 0.25 * (w + 1);
      registry.histogram("solver.qbd.seconds").record(seconds);
      expected_hist_sum += seconds;
    }
    TelemetryOptions options;
    options.dir = dir;
    options.owner = "w" + std::to_string(w);
    options.interval_seconds = 3600.0;
    options.registry = &registry;
    TelemetryPublisher publisher(options);
    publisher.publish(/*final_snapshot=*/true);
  }
  const FleetSnapshot fleet = read_fleet_telemetry(dir);
  ASSERT_EQ(fleet.workers.size(), 3u);
  // Sorted by owner for stable frames.
  EXPECT_EQ(fleet.workers[0].owner, "w0");
  EXPECT_EQ(fleet.workers[2].owner, "w2");
  EXPECT_EQ(fleet.merged.counter_value("sweep.points.solved"),
            expected_points);
  const LogHistogram::Snapshot* h =
      fleet.merged.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 6u);  // 1 + 2 + 3 samples
  EXPECT_NEAR(h->sum, expected_hist_sum, 1e-12);
  EXPECT_DOUBLE_EQ(h->min, 0.25);
  EXPECT_DOUBLE_EQ(h->max, 0.75);
}

// --- span-structured tracing and the report merger ------------------------

TEST(TraceSpans, EventsCarryPidSeqAndSpanFields) {
  const std::string path = testing::TempDir() + "esched_span_events.jsonl";
  {
    TraceWriter writer(path);
    set_global_trace(&writer);
    {
      const TraceSpan outer("sweep", {{"points", std::size_t{4}}});
      ASSERT_NE(outer.id(), 0u);
      const TraceSpan inner("point", {{"index", std::size_t{0}}});
      ASSERT_NE(inner.id(), 0u);
      EXPECT_NE(inner.id(), outer.id());
    }
    set_global_trace(nullptr);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(in, line)) {
    if (!line.empty()) events.push_back(parse_json(line, path));
  }
  ASSERT_EQ(events.size(), 4u);  // begin sweep, begin point, end, end
  std::uint64_t last_seq = 0;
  for (std::size_t n = 0; n < events.size(); ++n) {
    ASSERT_NE(events[n].find("pid"), nullptr);
    ASSERT_NE(events[n].find("seq"), nullptr);
    const std::uint64_t seq =
        static_cast<std::uint64_t>(events[n].find("seq")->as_number("seq"));
    if (n > 0) {
      EXPECT_GT(seq, last_seq);  // per-process monotonic
    }
    last_seq = seq;
  }
  // The inner span auto-parents under the outer via the thread stack.
  EXPECT_EQ(events[1].find("parent")->as_number("parent"),
            events[0].find("span")->as_number("span"));
  // LIFO close order: the inner span ends first.
  EXPECT_EQ(events[2].find("span")->as_number("span"),
            events[1].find("span")->as_number("span"));
}

TEST(TraceReport, ReconstructsSpanTreesFromInterleavedTwoProcessTrace) {
  // Hand-written two-worker fixture with interleaved timestamps and
  // colliding span ids (both processes use ids 1..3 — scoping by pid is
  // what keeps them apart). Worker A: worker(1) > chunk(2) > point(3);
  // worker B: worker(1) > chunk(2), with chunk 2 left UNCLOSED as if B
  // was SIGKILLed, plus one torn trailing line.
  const std::string dir = fresh_dir("esched_trace_report");
  const std::string a = dir + "/a.jsonl";
  const std::string b = dir + "/b.jsonl";
  write_file(
      a,
      "{\"t\":0.0,\"ev\":\"span_begin\",\"pid\":100,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"worker\",\"owner\":\"a\"}\n"
      "{\"t\":0.1,\"ev\":\"span_begin\",\"pid\":100,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"chunk\",\"chunk\":0}\n"
      "{\"t\":0.2,\"ev\":\"span_begin\",\"pid\":100,\"seq\":2,\"span\":3,"
      "\"parent\":2,\"name\":\"point\",\"index\":7,\"solver\":\"qbd\"}\n"
      "{\"t\":0.6,\"ev\":\"span_end\",\"pid\":100,\"seq\":3,\"span\":3,"
      "\"name\":\"point\"}\n"
      "{\"t\":0.7,\"ev\":\"span_end\",\"pid\":100,\"seq\":4,\"span\":2,"
      "\"name\":\"chunk\"}\n"
      "{\"t\":0.8,\"ev\":\"span_end\",\"pid\":100,\"seq\":5,\"span\":1,"
      "\"name\":\"worker\"}\n");
  write_file(
      b,
      "{\"t\":0.05,\"ev\":\"span_begin\",\"pid\":200,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"worker\",\"owner\":\"b\"}\n"
      "{\"t\":0.15,\"ev\":\"span_begin\",\"pid\":200,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"chunk\",\"chunk\":1}\n"
      "{\"t\":0.55,\"ev\":\"span_end\",\"pid\":200,\"seq\":2,\"span\":1,"
      "\"name\":\"worker\"}\n"
      "{\"t\":0.6,\"ev\":\"span_beg");  // torn final line
  const TraceForest forest = build_trace_forest({a, b});
  EXPECT_EQ(forest.malformed_lines, 1u);
  EXPECT_EQ(forest.unclosed_spans, 1u);  // B's chunk
  ASSERT_EQ(forest.spans.size(), 5u);
  ASSERT_EQ(forest.roots.size(), 2u);

  // Deterministic (t, pid, seq) merge order: A.worker(0.0), B.worker
  // (0.05), A.chunk(0.1), B.chunk(0.15), A.point(0.2).
  EXPECT_EQ(forest.spans[0].name, "worker");
  EXPECT_EQ(forest.spans[0].pid, 100);
  EXPECT_EQ(forest.spans[1].name, "worker");
  EXPECT_EQ(forest.spans[1].pid, 200);
  EXPECT_EQ(forest.spans[2].name, "chunk");
  EXPECT_EQ(forest.spans[2].pid, 100);
  EXPECT_EQ(forest.spans[3].name, "chunk");
  EXPECT_EQ(forest.spans[3].pid, 200);
  EXPECT_EQ(forest.spans[4].name, "point");
  EXPECT_EQ(forest.spans[4].pid, 100);

  // Tree edges resolve within each process despite the id collisions.
  EXPECT_EQ(forest.spans[2].parent, 0u);  // A.chunk under A.worker
  EXPECT_EQ(forest.spans[3].parent, 1u);  // B.chunk under B.worker
  EXPECT_EQ(forest.spans[4].parent, 2u);  // A.point under A.chunk
  const std::vector<std::string> path4 = forest.path(4);
  ASSERT_EQ(path4.size(), 3u);
  EXPECT_EQ(path4[0], "worker");
  EXPECT_EQ(path4[1], "chunk");
  EXPECT_EQ(path4[2], "point");

  // Durations: A.point 0.4 s; B's unclosed chunk extends to its file's
  // last event time (0.55).
  EXPECT_NEAR(forest.spans[4].duration(), 0.4, 1e-12);
  EXPECT_FALSE(forest.spans[3].closed);
  EXPECT_NEAR(forest.spans[3].duration(), 0.4, 1e-12);
  // Self time excludes children: A.chunk total 0.6, minus point 0.4.
  EXPECT_NEAR(forest.self_seconds(2), 0.2, 1e-9);

  // Golden text report (deterministic: merge order, sorted phases).
  std::ostringstream text;
  print_trace_report(forest, text, 5);
  EXPECT_NE(text.str().find("2 files, 9 events, 5 spans"), std::string::npos);
  EXPECT_NE(text.str().find("(1 unclosed, 1 malformed lines)"),
            std::string::npos);
  EXPECT_NE(text.str().find("slowest point spans:"), std::string::npos);
  EXPECT_NE(text.str().find("index=7 solver=qbd"), std::string::npos);

  // Folded stacks: lexicographically sorted, self time in microseconds.
  std::ostringstream folded;
  print_trace_folded(forest, folded);
  const std::string expected =
      "worker 300000\n"            // A self 0.2 + B self 0.1
      "worker;chunk 600000\n"      // A self 0.2 + B self 0.4
      "worker;chunk;point 400000\n";
  EXPECT_EQ(folded.str(), expected);
}

TEST(TraceReport, LongSpanNamePrintsWholeRow) {
  // A 600-byte span name: its phase-breakdown row must keep the count and
  // time columns and its newline, and the next section its own line.
  const std::string dir = fresh_dir("esched_trace_long_name");
  const std::string path = dir + "/t.jsonl";
  const std::string name(600, 'x');
  write_file(path,
             "{\"t\":0.0,\"ev\":\"span_begin\",\"pid\":1,\"seq\":0,\"span\":1,"
             "\"parent\":0,\"name\":\"" + name + "\"}\n"
             "{\"t\":0.5,\"ev\":\"span_end\",\"pid\":1,\"seq\":1,\"span\":1,"
             "\"name\":\"" + name + "\"}\n");
  const TraceForest forest = build_trace_forest({path});
  ASSERT_EQ(forest.spans.size(), 1u);
  std::ostringstream text;
  print_trace_report(forest, text, 5);
  EXPECT_NE(text.str().find("  " + name +
                            "        1     0.500000     0.500000     "
                            "0.500000\n\nslowest " + name + " spans:\n"),
            std::string::npos)
      << text.str();
}

TEST(TraceReport, SortsEqualTimestampsByPidThenSeq) {
  const std::string dir = fresh_dir("esched_trace_order");
  const std::string path = dir + "/t.jsonl";
  // Same t everywhere; order must come from (pid, seq) alone. Written
  // shuffled on purpose.
  write_file(
      path,
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":2,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"y\"}\n"
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":1,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"x\"}\n"
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":2,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"x\"}\n");
  const TraceForest forest = build_trace_forest({path});
  ASSERT_EQ(forest.spans.size(), 3u);
  EXPECT_EQ(forest.spans[0].pid, 1);
  EXPECT_EQ(forest.spans[1].pid, 2);
  EXPECT_EQ(forest.spans[1].id, 1u);   // pid 2's seq 0 before its seq 1
  EXPECT_EQ(forest.spans[2].id, 2u);
  // pid 2's span 2 parents under pid 2's span 1, begun earlier in merge
  // order, despite pid 1 owning an identical id.
  EXPECT_EQ(forest.spans[2].parent, 1u);
}

}  // namespace
}  // namespace esched
