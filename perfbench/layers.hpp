// Per-layer measurement for the traced run: an in-memory span log around
// the benchmark's calls into each layer's public functions, self time per
// layer, metrics-registry deltas, and the block solver's predicted work.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/scenario.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// One closed interval of work. The layer is the name up to its first '.'.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the log was created
  double end = -1.0;   ///< -1 while open
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  int thread = 0;            ///< small per-log thread index
};

/// Spans stay in memory while the benchmark runs and are written once at
/// exit, so recording costs a clock read and a vector append.
class SpanLog {
 public:
  SpanLog();

  double now() const;
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0);
  void close(std::uint64_t id);
  /// Records an already finished span on the calling thread.
  void add(const std::string& name, double start, double end,
           std::uint64_t parent);

  /// Durations of the closed spans called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  /// Per layer: the sum over its spans of the span's duration minus the
  /// part of that interval its child spans cover.
  std::map<std::string, double> self_seconds() const;
  /// One JSON object per line: name, start, end, id, parent, thread.
  void write_jsonl(const std::string& path) const;

 private:
  int thread_index();  // caller holds mutex_

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // spans_[id - 1]
  std::map<std::thread::id, int> threads_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t parent = 0)
      : log_(log), id_(log.open(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { log_.close(id_); }

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Change of a registry counter between two snapshots.
std::uint64_t counter_delta(const esched::MetricsSnapshot& before,
                            const esched::MetricsSnapshot& after,
                            const std::string& name);

/// Bucket-wise change of a registry histogram between two snapshots; min
/// and max are those of `after`, which bound the delta's samples.
esched::LogHistogram::Snapshot histogram_delta(
    const esched::MetricsSnapshot& before, const esched::MetricsSnapshot& after,
    const std::string& name);

/// Linear-interpolated quantile of `values` (0 when empty).
double quantile(std::vector<double> values, double q);

/// block_solver_flop_estimate for the exponential exact chain a point
/// solves: the generator is rebuilt the way ExactCtmcBatch lays it out.
double predicted_block_flops(const esched::RunPoint& point);

}  // namespace perfbench
