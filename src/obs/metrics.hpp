// Dependency-free process metrics: a registry of named counters and
// log-bucketed histograms designed so the hot path never takes a
// lock. Counters and histograms stripe their state across a fixed set of
// cache-line-padded shards; each thread hashes to a shard on first touch
// and from then on updates it with relaxed atomics, so concurrent solver
// threads never contend on a mutex and rarely on a cache line (the
// shared-counter idiom from MAGPIE's threaded samplers). snapshot() merges
// the shards into plain structs sorted by name, and to_json() serializes
// them under a stable, versioned schema (kMetricsSchemaVersion) suitable
// for `esched run --metrics-out`.
//
// Instrumentation must never perturb results: nothing here touches RNG
// streams, cache keys, or report bytes — recording is observation only,
// and the registry is always live (there is no "enabled" flag to thread
// through call sites; an unread counter costs one relaxed fetch_add).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace esched {

/// Version of the JSON layout emitted by MetricsSnapshot::to_json /
/// write_metrics_json. Bump when renaming or restructuring fields.
/// v2: the always-empty "gauges" object is gone.
inline constexpr int kMetricsSchemaVersion = 2;

/// Shards per striped metric. A power of two (shard choice masks the low
/// bits of a thread counter) sized to make same-shard collisions rare at
/// typical sweep thread counts without bloating per-metric memory.
inline constexpr std::size_t kMetricShards = 16;

namespace obs_detail {

/// Destination size for alignas: one shard per cache line so two threads
/// bumping different shards never false-share.
inline constexpr std::size_t kCacheLine = 64;

/// This thread's shard index, assigned round-robin on first use. Stable
/// for the thread's lifetime and shared by every metric, so a thread's
/// updates always land on the same stripe.
std::size_t shard_index();

}  // namespace obs_detail

/// Monotonically increasing event count. add() is lock-free and
/// wait-free-ish (one relaxed fetch_add on this thread's shard).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    shards_[obs_detail::shard_index()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum across shards. Approximate while writers are active (each shard
  /// read is atomic but the sum is not a consistent cut); exact once they
  /// quiesce.
  std::uint64_t total() const;

 private:
  struct alignas(obs_detail::kCacheLine) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Fixed description of the log-bucketed histogram layout: bucket b spans
/// [2^(b + kHistMinExp), 2^(b + kHistMinExp + 1)). With kHistMinExp = -30
/// bucket 0 starts near 0.93 ns — below any timer tick we can observe —
/// and bucket 63 ends above 8e9 seconds, so durations and state counts
/// both fit. Values below the first boundary (including 0) clamp into
/// bucket 0; values at or above the last boundary clamp into the top
/// bucket. Boundaries are exact powers of two, so tests can place values
/// on either side of a boundary without floating-point ambiguity.
inline constexpr int kHistMinExp = -30;
inline constexpr std::size_t kHistBuckets = 64;

/// Bucket index for `value` under the layout above.
std::size_t histogram_bucket(double value);
/// [lo, hi) bounds of bucket `b`.
double histogram_bucket_lo(std::size_t b);
double histogram_bucket_hi(std::size_t b);

/// Log-bucketed distribution of a nonnegative quantity (seconds, states).
/// record() is lock-free: relaxed fetch_adds into this thread's shard's
/// bucket and sum plus CAS folds of its min/max. A shard may have several
/// writers (threads beyond kMetricShards share one), so min/max start at
/// +inf/-inf and every sample folds into them.
class LogHistogram {
 public:
  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  void record(double value);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    std::array<std::uint64_t, kHistBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Quantile estimate: locate the bucket holding the q-th sample and
    /// interpolate linearly inside it, clamped to the observed [min, max].
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  struct alignas(obs_detail::kCacheLine) Shard {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<std::uint64_t> count{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Merged, order-stable view of a registry at one instant.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, LogHistogram::Snapshot>> histograms;

  /// Stable schema (kMetricsSchemaVersion): top-level schema_version plus
  /// one object per metric family; histogram entries carry count / sum /
  /// min / max / mean / p50 / p90 / p99 and the non-empty buckets as
  /// {lo, hi, count}. Names sort lexicographically, so equal event
  /// sequences serialize to identical bytes.
  JsonValue to_json() const;

  /// Looks up a counter/histogram by name (the vectors are sorted, but a
  /// linear scan is fine at snapshot cardinality). Returns 0 / nullptr
  /// when the metric was never registered.
  std::uint64_t counter_value(const std::string& name) const;
  const LogHistogram::Snapshot* find_histogram(const std::string& name) const;
};

/// Parses a snapshot serialized by MetricsSnapshot::to_json back into
/// struct form (the inverse the fleet merger needs). Histogram buckets are
/// relocated by their recorded `lo` bound — exact powers of two, so the
/// round trip is lossless. Throws esched::Error on a malformed document or
/// an unsupported schema_version.
MetricsSnapshot metrics_snapshot_from_json(const JsonValue& doc,
                                           const std::string& where);

/// Merges per-process snapshots into one fleet-wide snapshot: counters
/// sum by name, histograms merge BUCKET-WISE (counts added, sums
/// added, min/max folded) so quantiles of the result are re-derived from
/// the combined distribution — never averaged across processes, which
/// would be wrong for any skewed distribution.
MetricsSnapshot merge_metrics_snapshots(
    const std::vector<MetricsSnapshot>& snapshots);

/// Named-metric registry. Lookup/creation takes a mutex, so call sites on
/// hot paths should resolve their handles once (function-local static or
/// member reference) and then update lock-free; returned references stay
/// valid and stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  LogHistogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

/// The process-wide registry every esched layer records into.
MetricsRegistry& global_metrics();

/// Snapshots `registry` and writes its JSON (trailing newline) to `path`
/// via atomic_write_file, so a watcher never reads a torn file.
void write_metrics_json(const MetricsRegistry& registry,
                        const std::string& path);

/// RAII wall-time probe: records seconds-elapsed into `hist` (and
/// optionally bumps `count`) at scope exit. steady_clock, so wall-clock
/// jumps never produce negative durations.
class ScopedTimer {
 public:
  explicit ScopedTimer(LogHistogram& hist, Counter* count = nullptr);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  LogHistogram& hist_;
  Counter* count_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace esched
