// Live fleet telemetry: each worker (or run) periodically publishes its
// metrics snapshot to `<dir>/<owner>.metrics.json` from a background
// interval thread, plus a final snapshot at exit, so `esched status` can
// merge the fleet's counters and histograms while the sweep is still
// running instead of inferring progress from done-record mtimes.
//
// Every publication goes through atomic_write_file (temp + rename), so a
// reader never sees a torn document — a worker SIGKILLed mid-write leaves
// at worst a stale previous snapshot and a sweepable temp orphan, and
// a snapshot that fails to parse is skipped by the merger (reads as
// absent), never fatal. Heartbeat lag is the file's mtime age, the same
// wall-clock-free convention the lease protocol uses.
//
// Like the rest of src/obs, telemetry is observation only: publishing
// never changes report bytes, RNG streams, or cache keys.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace esched {

/// Version of the telemetry document wrapper (the `metrics` member inside
/// it is versioned separately by kMetricsSchemaVersion).
inline constexpr int kTelemetrySchemaVersion = 1;

/// Longest publishing interval (one day). Far longer ones overflow the
/// steady-clock wait, and a zero one rewrites the snapshot in a loop.
inline constexpr double kMaxTelemetryIntervalSeconds = 86400.0;

/// `owner` reduced to a safe file stem: characters outside
/// [A-Za-z0-9._-] become '_', an empty owner becomes "worker". Pure, so
/// publisher and reader agree on the path without coordination.
std::string telemetry_file_stem(const std::string& owner);

/// `<dir>/<stem(owner)>.metrics.json`.
std::string telemetry_path(const std::string& dir, const std::string& owner);

struct TelemetryOptions {
  std::string dir;    ///< created if missing
  std::string owner;  ///< file stem + the document's owner field
  /// In (0, kMaxTelemetryIntervalSeconds].
  double interval_seconds = 2.0;
  /// Registry to snapshot; nullptr = global_metrics().
  const MetricsRegistry* registry = nullptr;
};

/// Publishes periodic snapshots on a background thread for its lifetime:
/// one immediately at construction (so the fleet view sees the worker the
/// moment it starts), one per interval, and a final one (final: true) at
/// destruction. Construction throws esched::Error when the interval is out
/// of range, the directory cannot be created or the first snapshot cannot
/// be written — telemetry that silently goes nowhere would defeat its
/// purpose.
class TelemetryPublisher {
 public:
  explicit TelemetryPublisher(TelemetryOptions options);
  TelemetryPublisher(const TelemetryPublisher&) = delete;
  TelemetryPublisher& operator=(const TelemetryPublisher&) = delete;
  ~TelemetryPublisher();

  /// Snapshots the registry and publishes atomically, on demand.
  void publish(bool final_snapshot = false);

  const std::string& path() const { return path_; }

 private:
  TelemetryOptions options_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

/// One worker's parsed telemetry document.
struct WorkerTelemetry {
  std::string owner;
  long pid = 0;
  bool final_snapshot = false;   ///< written by the exit path, not a tick
  double uptime_seconds = 0.0;   ///< publisher lifetime at snapshot time
  double age_seconds = 0.0;      ///< now - file mtime: heartbeat lag
  MetricsSnapshot metrics;
};

/// The merged fleet view `esched status` renders.
struct FleetSnapshot {
  std::vector<WorkerTelemetry> workers;  ///< sorted by owner (stable frames)
  MetricsSnapshot merged;  ///< counters summed, histograms
                           ///< bucket-merged (quantiles re-derived)
  std::size_t skipped_files = 0;  ///< unparsable or foreign files ignored
};

/// Reads and merges every '*.metrics.json' under `dir`. Torn, unreadable
/// and version-skewed snapshots are counted in skipped_files and
/// otherwise ignored; temp files (is_tmp_file_name) and foreign names are
/// not snapshots and are passed over. A missing or empty directory yields
/// an empty snapshot — status must degrade, not throw, while a fleet is
/// mid-flight.
FleetSnapshot read_fleet_telemetry(const std::string& dir);

}  // namespace esched
