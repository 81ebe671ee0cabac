#include "obs/telemetry.hpp"

#include <algorithm>
#include <filesystem>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace esched {

namespace fs = std::filesystem;

namespace {

constexpr const char* kTelemetrySuffix = ".metrics.json";

long current_pid() {
#if __has_include(<unistd.h>)
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

/// Publisher-side observability observes itself too: tick count and write
/// cost, resolved once (registry lookups take a mutex).
struct TelemetryMetrics {
  Counter& snapshots;       ///< telemetry.snapshots.written
  LogHistogram& write_time; ///< telemetry.write.seconds
};

TelemetryMetrics& telemetry_metrics() {
  static TelemetryMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return TelemetryMetrics{m.counter("telemetry.snapshots.written"),
                            m.histogram("telemetry.write.seconds")};
  }();
  return metrics;
}

}  // namespace

std::string telemetry_file_stem(const std::string& owner) {
  if (owner.empty()) return "worker";
  std::string stem = owner;
  for (char& c : stem) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '_';
  }
  return stem;
}

std::string telemetry_path(const std::string& dir, const std::string& owner) {
  return (fs::path(dir) / (telemetry_file_stem(owner) + kTelemetrySuffix))
      .string();
}

TelemetryPublisher::TelemetryPublisher(TelemetryOptions options)
    : options_(std::move(options)),
      path_(telemetry_path(options_.dir, options_.owner)),
      start_(std::chrono::steady_clock::now()) {
  if (!(options_.interval_seconds > 0.0 &&
        options_.interval_seconds <= kMaxTelemetryIntervalSeconds)) {
    throw Error("telemetry interval must be greater than 0 and at most "
                "86400 seconds, got " +
                std::to_string(options_.interval_seconds));
  }
  if (options_.registry == nullptr) options_.registry = &global_metrics();
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw Error("cannot create telemetry dir '" + options_.dir +
                "': " + ec.message());
  }
  publish(/*final_snapshot=*/false);  // visible to the fleet immediately
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      // wait_for uses steady_clock; wakes early only on stop.
      stop_cv_.wait_for(
          lock, std::chrono::duration<double>(options_.interval_seconds),
          [this] { return stop_; });
      if (stop_) return;
      lock.unlock();
      try {
        publish(/*final_snapshot=*/false);
      } catch (const std::exception&) {
        // A failed tick (disk full, dir removed) must not kill the worker;
        // the next tick retries and status sees a growing heartbeat lag.
      }
      lock.lock();
    }
  });
}

TelemetryPublisher::~TelemetryPublisher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  try {
    publish(/*final_snapshot=*/true);
  } catch (const std::exception&) {
    // Destructors must not throw; a lost final snapshot degrades the
    // fleet view by one interval, nothing more.
  }
}

void TelemetryPublisher::publish(bool final_snapshot) {
  const ScopedTimer timer(telemetry_metrics().write_time,
                          &telemetry_metrics().snapshots);
  JsonValue doc = JsonValue::make_object();
  doc.set("telemetry_schema_version",
          JsonValue::make_number(
              static_cast<double>(kTelemetrySchemaVersion)));
  doc.set("owner", JsonValue::make_string(options_.owner));
  doc.set("pid",
          JsonValue::make_number(static_cast<double>(current_pid())));
  doc.set("final", JsonValue::make_bool(final_snapshot));
  doc.set("uptime_seconds",
          JsonValue::make_number(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start_)
                                     .count()));
  doc.set("metrics", options_.registry->snapshot().to_json());
  atomic_write_file(path_, doc.dump() + "\n");
}

FleetSnapshot read_fleet_telemetry(const std::string& dir) {
  FleetSnapshot fleet;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return fleet;  // no directory yet: empty fleet, not an error
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (is_tmp_file_name(name)) continue;  // mid-publish
    if (name.size() <= std::string(kTelemetrySuffix).size() ||
        name.compare(name.size() - std::string(kTelemetrySuffix).size(),
                     std::string::npos, kTelemetrySuffix) != 0) {
      continue;  // foreign file, not ours to judge
    }
    WorkerTelemetry worker;
    try {
      const std::optional<std::string> text =
          read_file(entry.path().string());
      if (!text.has_value()) throw Error(name + ": unreadable");
      const JsonValue doc = parse_json(*text, name);
      const JsonValue* version = doc.find("telemetry_schema_version");
      if (version == nullptr ||
          version->as_integer(name, 1, 1000000) != kTelemetrySchemaVersion) {
        throw Error(name + ": unsupported telemetry_schema_version");
      }
      if (const JsonValue* owner = doc.find("owner")) {
        worker.owner = owner->as_string(name + ".owner");
      }
      if (const JsonValue* pid = doc.find("pid")) {
        worker.pid = static_cast<long>(
            pid->as_integer(name + ".pid", 0, 1LL << 31));
      }
      if (const JsonValue* final_flag = doc.find("final")) {
        worker.final_snapshot = final_flag->as_bool(name + ".final");
      }
      if (const JsonValue* uptime = doc.find("uptime_seconds")) {
        worker.uptime_seconds = uptime->as_number(name + ".uptime_seconds");
      }
      const JsonValue* metrics = doc.find("metrics");
      if (metrics == nullptr) throw Error(name + ": no metrics member");
      worker.metrics = metrics_snapshot_from_json(*metrics, name);
    } catch (const std::exception&) {
      // Torn (pre-atomic-write crash debris), foreign, or version-skewed:
      // reads as absent.
      ++fleet.skipped_files;
      continue;
    }
    const auto mtime = fs::last_write_time(entry.path(), ec);
    if (!ec) {
      worker.age_seconds = std::max(
          0.0, std::chrono::duration<double>(now - mtime).count());
    }
    fleet.workers.push_back(std::move(worker));
  }
  std::sort(fleet.workers.begin(), fleet.workers.end(),
            [](const WorkerTelemetry& a, const WorkerTelemetry& b) {
              return a.owner != b.owner ? a.owner < b.owner : a.pid < b.pid;
            });
  std::vector<MetricsSnapshot> snapshots;
  snapshots.reserve(fleet.workers.size());
  for (const WorkerTelemetry& worker : fleet.workers) {
    snapshots.push_back(worker.metrics);
  }
  fleet.merged = merge_metrics_snapshots(snapshots);
  return fleet;
}

}  // namespace esched
